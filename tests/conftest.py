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


def _with_faces(doc, face):
    """A copy of an HDA document with each face reference of an n-cube
    replaced by ``face(ref, ids, positions)``: the ids of the entries of
    dimension n - 1 in file order, and the position of each."""
    doc = json.loads(json.dumps(doc))
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
    """An HDA document with its faces as ids: each position read as the id
    of the entry one dimension down, in file order.  A position past the
    end, and an id, stay as they are."""
    return _with_faces(
        doc, lambda ref, ids, _: ids[ref] if type(ref) is int and ref < len(ids) else ref
    )


def position_form(doc):
    """An HDA document with its faces as positions: each id of its id form
    read as the position of its entry one dimension down, in file order.
    Each id that names no entry becomes a position of its own past the end."""
    return _with_faces(
        id_form(doc), lambda ref, ids, positions: positions.setdefault(ref, len(positions))
    )
