"""Shared helpers for the randomized suites.

Every randomized test builds its generator through suite_rng, so a run
always checks the same cases.  Set the HDA_LAB_SEED environment variable
to an integer to move all suites onto a different (still reproducible)
case stream.
"""

import json
import os
import random

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


def raw_faces(P):
    """Every face entry of a precubical set by cube, as key pairs: the cells'
    own entries in dimension and basis order, then the entries for cubes
    that are not cells (kept in the set's side table)."""
    faces = {}
    for n in P.dims():
        for key in P.cells(n):
            try:
                faces[(n, key)] = P.face_keys((n, key))
            except KeyError:  # a cell with no entry
                pass
    faces.update((cube, pair) for cube, pair in P._unresolved.items() if cube not in P)
    return faces


def records(doc):
    """A copy of an HDA document in a record form: a "dims" list becomes
    the "cubes" records of the position form, one per cell, in file order;
    a document with "cubes" is copied as it is."""
    doc = json.loads(json.dumps(doc))
    if "dims" not in doc:
        return doc
    cubes = []
    for n, entry in enumerate(doc["dims"]):
        flat, words = entry["faces"], entry.get("labels")
        for k, rid in enumerate(entry["ids"]):
            faces = flat[2 * n * k : 2 * n * (k + 1)]
            cubes.append({"id": rid, "dim": n, "d0": faces[:n], "d1": faces[n:]})
            if words is not None:
                cubes[-1]["label"] = words[k]
    del doc["dims"]
    doc["cubes"] = cubes
    return doc


def _with_faces(doc, face):
    """A record-form copy of an HDA document with each face reference of an
    n-cube replaced by ``face(ref, ids, positions)``: the ids of the entries
    of dimension n - 1 in file order, and the position of each."""
    doc = records(doc)
    ids = {}
    for entry in doc["cubes"]:
        ids.setdefault(entry["dim"], []).append(entry["id"])
    positions = {n: {rid: pos for pos, rid in enumerate(rids)} for n, rids in ids.items()}
    for entry in doc["cubes"]:
        n = entry["dim"]
        for side in ("d0", "d1"):
            entry[side] = [face(ref, ids.get(n - 1, []), positions.setdefault(n - 1, {})) for ref in entry[side]]
    return doc


def id_form(doc):
    """An HDA document in the record id form: each position read as the id
    of the entry one dimension down, in file order.  A position past the
    end, and an id, stay as they are."""
    return _with_faces(
        doc, lambda ref, ids, _: ids[ref] if type(ref) is int and ref < len(ids) else ref
    )


def position_form(doc):
    """An HDA document in the record position form: each id of its id form
    read as the position of its entry one dimension down, in file order.
    Each id that names no entry becomes a position of its own past the end."""
    return _with_faces(
        id_form(doc), lambda ref, ids, positions: positions.setdefault(ref, len(positions))
    )


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
        dims.append({"ids": [entry["id"] for entry in entries], "faces": faces})
        labeled = ["label" in entry for entry in entries]
        if any(labeled):
            if not all(labeled):
                return None
            dims[-1]["labels"] = [entry["label"] for entry in entries]
        below = {entry["id"]: pos for pos, entry in enumerate(entries)}
    del doc["cubes"]
    doc["dims"] = dims
    return doc
