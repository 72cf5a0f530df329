"""Shared helpers for the randomized suites.

Every randomized test builds its generator through suite_rng, so a run
always checks the same cases.  Set the HDA_LAB_SEED environment variable
to an integer to move all suites onto a different (still reproducible)
case stream.
"""

import base64
import json
import os
import random
import struct
from types import SimpleNamespace

from hda_lab.models import directed_circle
from hda_lab.products import tensor_hda

BASE_SEED = 271828


def suite_rng(tag: str) -> random.Random:
    """A deterministic generator with its own stream per suite tag."""
    raw = os.environ.get("HDA_LAB_SEED")
    base = BASE_SEED if raw is None else int(raw)
    return random.Random(f"{base}/{tag}")


def random_words(rng: random.Random, count: int, prefix: str = "a", longest: int = 3):
    """Random edge words over a small letter pool named after the prefix."""
    pool = [f"{prefix}{j}" for j in range(rng.randint(1, 4))]
    return [
        tuple(rng.choice(pool) for _ in range(rng.randint(1, longest)))
        for _ in range(count)
    ]


def random_circle(rng: random.Random, prefix: str = "a", max_edges: int = 4):
    """A directed circle with 1..max_edges edges and random short words."""
    return directed_circle(random_words(rng, rng.randint(1, max_edges), prefix))


def random_torus(rng: random.Random, prefix: str = "t"):
    """The tensor product of two independent random circles."""
    return tensor_hda(
        random_circle(rng, prefix + "x"), random_circle(rng, prefix + "y")
    )


def sparse_columns(mat, cols=None):
    """A dense matrix given by rows as the (sparse columns, row count) pair
    ``smith_normal_form`` takes; ``cols`` is the width of a matrix with no rows."""
    width = len(mat[0]) if mat else cols or 0
    columns = [{i: row[j] for i, row in enumerate(mat) if row[j]} for j in range(width)]
    return columns, len(mat)


def mat_mul(a, b, inner=None):
    """The product of two dense matrices given by rows; ``inner`` is the inner
    dimension when a has no rows."""
    inner = len(a[0]) if a else inner
    if inner is None or inner and b and len(b) != inner:
        raise ValueError("shape mismatch")
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * cols
        for t, x in enumerate(row):
            if x:
                for j, y in enumerate(b[t]):
                    acc[j] += x * y
        out.append(acc)
    return out


def identity_matrix(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def dense_snf(snf):
    """The certificates of a ``SmithNormalForm`` as dense matrices by rows:
    U, U^-1, V, V^-1 as ``u``, ``u_inv``, ``v``, ``v_inv``, and D as ``d``."""
    r, c = snf.rows, snf.cols

    def rows(lines, width):
        return [[line.get(k, 0) for k in range(width)] for line in lines]

    def columns(lines, height):
        return [[line.get(i, 0) for line in lines] for i in range(height)]

    return SimpleNamespace(
        u=rows(snf.u_rows, r),
        u_inv=columns(snf.u_inv_cols, r),
        v=columns(snf.v_cols, c),
        v_inv=rows(snf.v_inv_rows, c),
        d=[[snf.diagonal[i] if i == j < snf.rank else 0 for j in range(c)] for i in range(r)],
    )


def raw_faces(P):
    """Every face entry of a precubical set by cube, as key pairs: the cells'
    own entries in dimension and basis order, then the entries for cubes
    that are not cells (kept in the set's side table)."""
    faces = {}
    for n in P.dims():
        for key in P.cells(n):
            if not n and (n, key) not in P._unresolved:  # a vertex has no faces
                continue
            try:
                faces[(n, key)] = P.face_keys((n, key))
            except KeyError:  # a cell with no entry
                pass
    faces.update((cube, pair) for cube, pair in P._unresolved.items() if cube not in P)
    return faces


def pack_faces(positions):
    """A "faces" text of the dims form: the positions as little-endian
    unsigned 32-bit integers, in base64."""
    return base64.b64encode(struct.pack(f"<{len(positions)}I", *positions)).decode("ascii")


def unpack_faces(text):
    """The positions of a "faces" text, as a list."""
    raw = base64.b64decode(text, validate=True)
    return list(struct.unpack(f"<{len(raw) // 4}I", raw))


def records(doc):
    """A copy of an HDA document in a record form: a "dims" list becomes one
    "cubes" record per cell, in file order, each naming its faces by their
    positions in the "dims" list, which the loader refuses; a document with
    "cubes" is copied as it is."""
    doc = json.loads(json.dumps(doc))
    if "dims" not in doc:
        return doc
    cubes = []
    for n, entry in enumerate(doc["dims"]):
        flat, words = unpack_faces(entry["faces"]), entry.get("labels")
        for k, rid in enumerate(entry["ids"]):
            faces = flat[2 * n * k : 2 * n * (k + 1)]
            cubes.append({"id": rid, "dim": n, "d0": faces[:n], "d1": faces[n:]})
            if words is not None:
                cubes[-1]["label"] = words[k]
    del doc["dims"]
    doc["cubes"] = cubes
    return doc


def id_form(doc):
    """An HDA document in the record form the loader reads: each face
    position of its records read as the id of the entry one dimension down,
    in file order.  A position past the end, and an id, stay as they are."""
    doc = records(doc)
    ids = {}
    for entry in doc["cubes"]:
        ids.setdefault(entry["dim"], []).append(entry["id"])
    for entry in doc["cubes"]:
        below = ids.get(entry["dim"] - 1, [])
        for side in ("d0", "d1"):
            entry[side] = [
                below[ref] if type(ref) is int and ref < len(below) else ref for ref in entry[side]
            ]
    return doc


def dims_form(doc):
    """An HDA document in the dims form, the cells of each dimension in file
    order; None for a document the form cannot hold: a face that names no
    entry one dimension down, a cube with the wrong number of faces, or
    labels on some edges only."""
    doc = id_form(doc)
    groups = {}
    for entry in doc["cubes"]:
        groups.setdefault(entry["dim"], []).append(entry)
    dims, below = [], {}
    for n in range(max(groups, default=-1) + 1):
        entries = groups.get(n, [])
        faces = []
        for entry in entries:
            refs = entry["d0"] + entry["d1"]
            if len(entry["d0"]) != n or len(entry["d1"]) != n or not set(refs) <= below.keys():
                return None
            faces += [below[ref] for ref in refs]
        dims.append({"ids": [entry["id"] for entry in entries], "faces": pack_faces(faces)})
        labeled = ["label" in entry for entry in entries]
        if any(labeled):
            if not all(labeled):
                return None
            dims[-1]["labels"] = [entry["label"] for entry in entries]
        below = {entry["id"]: pos for pos, entry in enumerate(entries)}
    del doc["cubes"]
    doc["dims"] = dims
    return doc
