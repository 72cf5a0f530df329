"""Canonical JSON documents for automata, directed maps, programs, chains.

Cube keys may be arbitrary hashable values in memory (program models use
strings, tensor products use nested pairs), so files carry rendered string
ids: strings stay themselves, integers print in decimal, tuples render as
"(a,b)" recursively.  Rendering must stay injective per dimension; a
collision is refused at save time, so ids only need to be unique within
each dimension.

An HDA file names the faces of an n-cube in one of two forms, and the
JSON type of its face entries says which: integer positions into the
entries of dimension n - 1 in file order, which the writer emits, or the
ids of those entries, which the writer emits only for a model with a face
that does not resolve, so that such a model still round-trips for
validation.  The loader reads both; a file that mixes them is refused.

Documents are dumped through ``canonical_json``: sorted keys, two-space
indent, ASCII, trailing newline.  Identical inputs give identical bytes.

Malformed input raises ``FileFormatError`` with a dotted path into the
document; JSON syntax errors keep their line/column.  Semantic validity
(face identities, label conditions, positions past the end of the
dimension below) is deliberately not checked here; callers run
``validate_hda`` and friends on the loaded objects.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from itertools import chain, compress, repeat
from json.encoder import encode_basestring_ascii as _encode_str
from operator import contains, itemgetter
from pathlib import Path as FsPath
from typing import TYPE_CHECKING

from .hda import Hda
from .precubical import Cube, GridCoord, Key, PrecubicalSet
from .exterior import Alphabet

if TYPE_CHECKING:
    from .dimap import ElementaryDimap
    from .homology import Chain
    from .programs import Guard, SharedVariableProgram


class FileFormatError(ValueError):
    """A document does not follow the expected schema."""


def render_id(key: Key) -> str:
    if isinstance(key, bool):
        raise FileFormatError(f"cannot render key {key!r}")
    if isinstance(key, str):
        return key
    if isinstance(key, int):
        return str(key)
    if isinstance(key, tuple):
        return "(" + ",".join(render_id(k) for k in key) + ")"
    raise FileFormatError(f"cannot render key {key!r}")


def _id_maps(P: PrecubicalSet) -> dict[int, dict[str, Key]]:
    """Rendered id -> key per dimension, refusing collisions."""
    out: dict[int, dict[str, Key]] = {}
    for n in range(P.max_dim + 1):
        table: dict[str, Key] = {}
        for key in P.cells(n):
            rid = render_id(key)
            if rid in table:
                raise FileFormatError(
                    f"dimension {n} ids collide after rendering: {rid!r}"
                )
            table[rid] = key
        out[n] = table
    return out


_CUBE_KEYS = ({"d0", "d1", "dim", "id"}, {"d0", "d1", "dim", "id", "label"})
_PAD, _INNER = "\n      ", "\n        "  # a record's keys, and its lists' items


def _strings(items) -> str | None:
    """A list of str as ``json.dumps`` indents it in a cube record."""
    if type(items) is not list or not {str}.issuperset(map(type, items)):
        return None
    if not items:
        return "[]"
    return "[" + _INNER + ("," + _INNER).join(map(_encode_str, items)) + _PAD + "]"


def _record_layout(sizes: tuple[int, int]) -> str:
    """The %-format of a cube record whose faces are ``sizes`` ints: their
    values, the dim, the encoded id and the label's text fill it."""
    d0, d1 = (
        "[" + _INNER + ("," + _INNER).join(["%d"] * k) + _PAD + "]" if k else "[]" for k in sizes
    )
    return f'{{{_PAD}"d0": {d0},{_PAD}"d1": {d1},{_PAD}"dim": %d,{_PAD}"id": %s%s\n    }}'


def _cube_json(entry, layouts: dict) -> str:
    """A record of a top-level "cubes" list, as ``json.dumps`` indents it
    there; ``layouts`` keeps the formats of records with int faces by size."""
    if type(entry) is dict and entry.keys() in _CUBE_KEYS:
        rid, dim, d0, d1 = entry["id"], entry["dim"], entry["d0"], entry["d1"]
        label = _strings(entry["label"]) if len(entry) == 5 else ""
        if type(rid) is str and type(dim) is int and label is not None:
            label = label and f',{_PAD}"label": {label}'
            if type(d0) is list and type(d1) is list and {*map(type, d0), *map(type, d1)} <= {int}:
                sizes = len(d0), len(d1)
                if sizes not in layouts:
                    layouts[sizes] = _record_layout(sizes)
                return layouts[sizes] % (*d0, *d1, dim, _encode_str(rid), label)
            d0, d1 = _strings(d0), _strings(d1)
            if None not in (d0, d1):
                return (f'{{{_PAD}"d0": {d0},{_PAD}"d1": {d1},{_PAD}"dim": {dim},'
                        f'{_PAD}"id": {_encode_str(rid)}{label}\n    }}')
    # JSON text holds no raw newline, so this only indents the record.
    return json.dumps(entry, sort_keys=True, indent=2).replace("\n", "\n    ")


def canonical_json(doc: dict) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    ``json.dumps`` encodes in pure Python when indenting, so the records of a
    top-level "cubes" list, an HDA file's bulk, are laid out here instead.
    """
    cubes = doc.get("cubes") if type(doc) is dict else None
    if type(cubes) is not list or not cubes:
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    # A top-level key is the only line that starts with two spaces and a quote.
    rest = json.dumps({**doc, "cubes": [0]}, sort_keys=True, indent=2)
    head, tail = rest.split('\n  "cubes": [\n    0\n  ]', 1)
    parts = [head, '\n  "cubes": [']
    layouts: dict = {}
    for entry in cubes:
        parts += (",\n    ", _cube_json(entry, layouts))
    parts[2] = "\n    "  # no comma before the first record
    parts += ["\n  ]", tail, "\n"]
    return "".join(parts)


# -- HDA files --------------------------------------------------------------


def hda_to_json(h: Hda) -> dict:
    P = h.complex
    # The rendered ids per dimension, in basis order, each rendered once;
    # _id_maps only runs to name the first key that does not render or collides.
    ids = []
    for n in range(P.max_dim + 1):
        keys = P.cells(n)
        try:
            rids = [*map(render_id, keys)]
        except FileFormatError:
            rids = []
        if len(set(rids)) < len(keys):
            _id_maps(P)
        ids.append(rids)
    # Faces are named by their position among the records one dimension
    # down, in file order, unless one does not resolve: then by id, so that
    # a damaged model still reaches validation.
    by_position = all(None not in P.face_positions(n) for n in range(1, P.max_dim + 1))
    cubes = []
    below: list = []  # per basis position one dimension down: the file's name for it
    for n, rids in enumerate(ids):
        faces = P.face_positions(n)
        records = []
        for pos, (key, rid) in enumerate(zip(P.cells(n), rids)):
            if not n:
                entry = {"id": rid, "dim": 0, "d0": [], "d1": []}
            elif (flat := faces[pos]) is not None:
                refs = [*map(below.__getitem__, flat)]
                entry = {"id": rid, "dim": n, "d0": refs[:n], "d1": refs[n:]}
            else:  # faces that are not cells, or not n of them
                try:
                    d0, d1 = P.face_keys((n, key))
                except KeyError:
                    raise FileFormatError(f"dimension {n}: cell {rid!r} has no face entry") from None
                d0, d1 = [*map(render_id, d0)], [*map(render_id, d1)]
                entry = {"id": rid, "dim": n, "d0": d0, "d1": d1}
            if n == 1:
                if key not in h.labels:
                    raise FileFormatError(f"dimension 1: cell {rid!r} has no label")
                entry["label"] = list(h.labels[key])
            records.append(entry)
        order = sorted(range(len(rids)), key=rids.__getitem__)
        cubes += map(records.__getitem__, order)
        below = rids
        if by_position:
            below = [0] * len(order)
            for rank, pos in enumerate(order):
                below[pos] = rank
    return {
        "alphabet": list(h.alphabet.letters),
        "cubes": cubes,
        "initial": sorted(render_id(key) for _, key in h.initial),
        "final": sorted(render_id(key) for _, key in h.final),
    }


def _want(doc: dict, field: str, kind, where: str):
    if not isinstance(doc, dict) or field not in doc:
        raise FileFormatError(f"{where}: missing field {field!r}")
    value = doc[field]
    if not isinstance(value, kind) or isinstance(value, bool) and kind is int:
        names = getattr(kind, "__name__", None) or " or ".join(
            k.__name__ for k in kind
        )
        raise FileFormatError(f"{where}.{field}: expected {names}")
    return value


def _by_position(entries: list) -> bool:
    """Whether a cube list names faces by position: its first face entry, in
    file order, is a number."""
    for entry in entries:
        for side in ("d0", "d1"):
            refs = entry.get(side) if type(entry) is dict else None
            if type(refs) is list and refs:
                return type(refs[0]) in (int, float)
    return False


def _cube_error(entry, where: str, cells: dict, by_position: bool) -> None:
    """Raise the error of the first bad field of a cube entry, if any."""
    if not isinstance(entry, dict):
        raise FileFormatError(f"{where}: expected an object")
    rid = _want(entry, "id", str, where)
    dim = _want(entry, "dim", int, where)
    if dim < 0:
        raise FileFormatError(f"{where}.dim: expected a dimension")
    if rid in cells.get(dim, ()):
        raise FileFormatError(f"{where}: repeated id {rid!r} in dimension {dim}")
    for arr in (_want(entry, "d0", list, where), _want(entry, "d1", list, where)):
        if by_position:
            if not all(type(ref) is int and ref >= 0 for ref in arr):
                raise FileFormatError(f"{where}: face positions must be non-negative integers")
        elif not all(isinstance(ref, str) for ref in arr):
            raise FileFormatError(f"{where}: face ids must be strings")
    if not dim and (entry["d0"] or entry["d1"]):
        raise FileFormatError(f"{where}: a vertex has no faces")
    if "label" in entry:
        if dim != 1:
            raise FileFormatError(f"{where}: label is only allowed on dimension-1 cubes")
        if not all(isinstance(a, str) for a in _want(entry, "label", list, where)):
            raise FileFormatError(f"{where}.label: letters must be strings")


def _read_by_dimension(entries: list) -> tuple[PrecubicalSet, dict] | None:
    """The complex and labels of a cube list read a whole dimension at a
    time, or None unless every entry is well formed and every face
    resolves: dimensions in non-decreasing order, exact types,
    no repeated id, n faces on each side of an n-cube, faces that name cells
    one dimension down, all by id or all by position, labels only on edges."""
    if not {dict}.issuperset(map(type, entries)):
        return None
    try:
        dims = [*map(itemgetter("dim"), entries)]
    except KeyError:
        return None
    if not {int}.issuperset(map(type, dims)) or dims != sorted(dims) or dims and dims[0] < 0:
        return None
    cells: dict[int, dict[str, int]] = {}
    faces: dict[int, list[tuple[int, ...]]] = {}
    labels: dict[Key, tuple[str, ...]] = {}
    get_id, get_d0, get_d1, get_label = map(itemgetter, ("id", "d0", "d1", "label"))
    form = None  # the type of the faces, int or str, once one dimension has them
    stop = 0
    while stop < len(dims):
        # One dimension's fields at a time, so only its temporaries are alive.
        n = dims[stop]
        start, stop = stop, bisect_right(dims, n, stop)
        chunk = entries[start:stop]
        try:
            ids, d0s, d1s = [*map(get_id, chunk)], [*map(get_d0, chunk)], [*map(get_d1, chunk)]
        except KeyError:
            return None
        if not (
            {str}.issuperset(map(type, ids))
            and {list}.issuperset(map(type, d0s))
            and {list}.issuperset(map(type, d1s))
            and {n}.issuperset(map(len, d0s))  # for n = 0: a vertex has no faces
            and {n}.issuperset(map(len, d1s))
        ):
            return None
        table = cells[n] = dict(zip(ids, range(len(ids))))
        if len(table) < len(ids):
            return None
        if n:
            below = cells.get(n - 1, {})
            refs = chain.from_iterable(chain.from_iterable(zip(d0s, d1s)))
            if form is None:
                form = type(d0s[0][0])
            if form is int:
                # A position in range is looked up among ``below``'s own
                # values, so the model shares one int per position.
                refs = [*refs]
                if not {int}.issuperset(map(type, refs)) or min(refs) < 0:
                    return None
                at = [*below.values()].__getitem__
            else:
                # A face id found in ``below``, whose keys are exact strings,
                # equals a string, so its type needs no test of its own.
                at = below.__getitem__
            try:
                faces[n] = [*zip(*[map(at, refs)] * (2 * n))]
            except (IndexError, KeyError, TypeError):  # no such cell or position, or unhashable
                return None
        marked = [*map(contains, chunk, repeat("label"))]
        if n == 1:
            words = [*map(get_label, compress(chunk, marked))]
            if not (
                {list}.issuperset(map(type, words))
                and {str}.issuperset(map(type, chain.from_iterable(words)))
            ):
                return None
            labels = dict(zip(compress(ids, marked), map(tuple, words)))
        elif any(marked):
            return None
    return PrecubicalSet.from_positions(cells, faces), labels


def _read_by_entry(entries: list) -> tuple[PrecubicalSet, dict]:
    """The complex and labels of any cube list, entry by entry; raises the
    first entry's error, in file order.  Positions are read as the ids of
    the entries one dimension down, in file order, once all are read; one
    past the end stays a number.  The key-based constructor resolves the
    faces and keeps an entry whose faces are not cells for the validator."""
    cells: dict[int, dict[str, None]] = {}
    faces: dict[Cube, tuple[list, list]] = {}
    labels: dict[Key, tuple[str, ...]] = {}
    by_position = _by_position(entries)
    for pos, entry in enumerate(entries):
        _cube_error(entry, f"hda.cubes[{pos}]", cells, by_position)
        rid, dim = entry["id"], entry["dim"]
        cells.setdefault(dim, {})[rid] = None
        if dim:
            faces[(dim, rid)] = (entry["d0"], entry["d1"])
        if "label" in entry:
            labels[rid] = tuple(entry["label"])
    if by_position:
        ids = {n: [*table] for n, table in cells.items()}
        for (n, rid), sides in faces.items():
            below = ids.get(n - 1, [])
            faces[(n, rid)] = tuple(
                [below[ref] if ref < len(below) else ref for ref in side] for side in sides
            )
    return PrecubicalSet(cells, faces), labels


def hda_from_json(doc: dict) -> Hda:
    letters = _want(doc, "alphabet", list, "hda")
    try:
        alphabet = Alphabet(letters)
    except ValueError as e:
        raise FileFormatError(f"hda.alphabet: {e}") from None
    entries = _want(doc, "cubes", list, "hda")
    # A canonical file takes the first; any other list is read, or refused,
    # entry by entry from the start.
    complex, labels = _read_by_dimension(entries) or _read_by_entry(entries)
    marks = {}
    for mark in ("initial", "final"):
        refs = _want(doc, mark, list, "hda")
        for ref in refs:
            if not isinstance(ref, str):
                raise FileFormatError(f"hda.{mark}: vertex ids must be strings")
        marks[mark] = frozenset((0, ref) for ref in refs)
    return Hda(
        complex=complex,
        alphabet=alphabet,
        labels=labels,
        initial=marks["initial"],
        final=marks["final"],
    )


def read_text(path: str) -> str:
    try:
        return FsPath(path).read_text()
    except OSError as e:
        raise FileFormatError(f"{path}: {e.strerror or e}") from e
    except UnicodeDecodeError as e:
        raise FileFormatError(f"{path}: {e}") from e


def json_object(text: str, where: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FileFormatError(
            f"{where}: line {e.lineno} column {e.colno}: {e.msg}"
        ) from e
    except ValueError as e:  # an integer literal past int's digit limit
        raise FileFormatError(f"{where}: {e}") from e
    except RecursionError as e:
        raise FileFormatError(f"{where}: JSON nested too deeply") from e
    if not isinstance(doc, dict):
        raise FileFormatError(f"{where}: expected a JSON object")
    return doc


def load_hda(path: str) -> Hda:
    doc = json_object(read_text(path), path)
    try:
        return hda_from_json(doc)
    except FileFormatError as e:
        raise FileFormatError(f"{path}: {e}") from None


def save_hda(h: Hda, path: str) -> None:
    FsPath(path).write_text(canonical_json(hda_to_json(h)))


# -- dimap files -------------------------------------------------------------


_COORD_PART = re.compile(r"\[(\d+),(\d+)\]|(-?\d+)")


def render_grid_coord(coord: GridCoord) -> str:
    parts = []
    for c in coord:
        if isinstance(c, tuple):
            parts.append(f"[{c[0]},{c[1]}]")
        else:
            parts.append(str(c))
    return "(" + ",".join(parts) + ")"


def parse_grid_coord(text: str) -> GridCoord:
    if not (text.startswith("(") and text.endswith(")")):
        raise FileFormatError(f"bad grid coordinate {text!r}")
    inside = text[1:-1]
    if not inside:
        return ()
    out: list = []
    for m in _COORD_PART.finditer(inside):
        if m.group(3) is not None:
            out.append(int(m.group(3)))
        else:
            out.append((int(m.group(1)), int(m.group(2))))
    coord = tuple(out)
    if render_grid_coord(coord) != text:
        raise FileFormatError(f"bad grid coordinate {text!r}")
    return coord


def dimap_to_json(f: ElementaryDimap, source_ref: str, target_ref: str) -> dict:
    _id_maps(f.source.complex)
    _id_maps(f.target.complex)
    f0 = {
        render_id(v[1]): render_id(w[1]) for v, w in sorted(
            f.vertex_map.items(), key=lambda kv: render_id(kv[0][1])
        )
    }
    cubes = []
    for cube, cm in f.cube_maps.items():
        flat = {
            render_grid_coord(gc): render_id(tgt[1])
            for gc, tgt in cm.flat.items()
        }
        cubes.append(
            {
                "id": render_id(cube[1]),
                "shape": list(cm.shape),
                "sigma": list(cm.axis_perm),
                "flat": dict(sorted(flat.items())),
            }
        )
    cubes.sort(key=lambda e: (len(e["shape"]), e["id"]))
    return {"source": source_ref, "target": target_ref, "f0": f0, "cubes": cubes}


def dimap_from_json(doc: dict, source: Hda, target: Hda) -> ElementaryDimap:
    from .dimap import CubeMap, ElementaryDimap

    src_ids = _id_maps(source.complex)
    tgt_ids = _id_maps(target.complex)

    def resolve(table: dict[int, dict[str, Key]], dim: int, rid, where: str) -> Cube:
        if not isinstance(rid, str) or rid not in table.get(dim, ()):
            raise FileFormatError(f"{where}: no cube {rid!r} in dimension {dim}")
        return (dim, table[dim][rid])

    vertex_map = {}
    for rid, tid in _want(doc, "f0", dict, "dimap").items():
        vertex_map[resolve(src_ids, 0, rid, "dimap.f0")] = resolve(
            tgt_ids, 0, tid, "dimap.f0"
        )
    cube_maps = {}
    for pos, entry in enumerate(_want(doc, "cubes", list, "dimap")):
        where = f"dimap.cubes[{pos}]"
        shape = _want(entry, "shape", list, where)
        sigma = _want(entry, "sigma", list, where)
        for name, values in (("shape", shape), ("sigma", sigma)):
            if not {int}.issuperset(map(type, values)):
                raise FileFormatError(f"{where}.{name}: expected list of int")
        n = len(shape)
        cube = resolve(src_ids, n, _want(entry, "id", str, where), where)
        flat = {}
        for text, tid in _want(entry, "flat", dict, where).items():
            gc = parse_grid_coord(text)
            d = sum(1 for c in gc if isinstance(c, tuple))
            flat[gc] = resolve(tgt_ids, d, tid, f"{where}.flat[{text}]")
        cube_maps[cube] = CubeMap(tuple(shape), tuple(sigma), flat)
    return ElementaryDimap(source, target, vertex_map, cube_maps)


def load_dimap(path: str) -> ElementaryDimap:
    doc = json_object(read_text(path), path)
    base = FsPath(path).parent
    source = load_hda(str(base / _want(doc, "source", str, "dimap")))
    target = load_hda(str(base / _want(doc, "target", str, "dimap")))
    return dimap_from_json(doc, source, target)


def save_dimap(
    f: ElementaryDimap, path: str, source_ref: str, target_ref: str
) -> None:
    FsPath(path).write_text(
        canonical_json(dimap_to_json(f, source_ref, target_ref))
    )


# -- program files -----------------------------------------------------------


def _guard_to_json(guard: Guard):
    tag = guard[0]
    if tag == "true":
        return ["true"]
    if tag == "cmp":
        return ["cmp", guard[1], guard[2], guard[3]]
    if tag in ("and", "or"):
        return [tag, [_guard_to_json(g) for g in guard[1]]]
    if tag == "not":
        return ["not", _guard_to_json(guard[1])]
    raise FileFormatError(f"cannot render guard {guard!r}")


def _guard_from_json(node, where: str) -> Guard:
    if not isinstance(node, list) or not node or not isinstance(node[0], str):
        raise FileFormatError(f"{where}: bad guard {node!r}")
    tag = node[0]
    if tag == "true":
        return ("true",)
    if tag == "cmp":
        if len(node) != 4:
            raise FileFormatError(f"{where}: cmp guard needs op, variable, value")
        return ("cmp", node[1], node[2], node[3])
    if tag in ("and", "or"):
        if len(node) != 2 or not isinstance(node[1], list):
            raise FileFormatError(f"{where}: {tag} guard needs a list")
        return (tag, [_guard_from_json(g, where) for g in node[1]])
    if tag == "not":
        if len(node) != 2:
            raise FileFormatError(f"{where}: not guard needs one operand")
        return ("not", _guard_from_json(node[1], where))
    raise FileFormatError(f"{where}: unknown guard tag {tag!r}")


def program_to_json(prog: SharedVariableProgram) -> dict:
    return {
        "name": prog.name,
        "variables": [
            {"name": v.name, "domain": list(v.domain), "initial": list(v.initial)}
            for v in prog.variables
        ],
        "processes": [
            {
                "name": p.name,
                "states": list(p.states),
                "start": p.start,
                "transitions": [
                    {
                        "from": t.source,
                        "to": t.target,
                        "action": t.action,
                        "guard": _guard_to_json(t.guard),
                        "effects": [list(e) for e in t.effects],
                    }
                    for t in p.transitions
                ],
            }
            for p in prog.processes
        ],
    }


def program_from_json(doc: dict) -> SharedVariableProgram:
    from .programs import Process, SharedVariable, SharedVariableProgram, Transition

    name = _want(doc, "name", str, "program")
    variables = []
    for pos, v in enumerate(_want(doc, "variables", list, "program")):
        where = f"program.variables[{pos}]"
        initial = _want(v, "initial", (int, list), where)
        if isinstance(initial, int):
            initial = [initial]
        variables.append(
            SharedVariable(
                _want(v, "name", str, where),
                tuple(_want(v, "domain", list, where)),
                tuple(initial),
            )
        )
    processes = []
    for pos, p in enumerate(_want(doc, "processes", list, "program")):
        where = f"program.processes[{pos}]"
        transitions = []
        for tpos, t in enumerate(_want(p, "transitions", list, where)):
            twhere = f"{where}.transitions[{tpos}]"
            guard = ("true",)
            if "guard" in t:
                guard = _guard_from_json(t["guard"], twhere)
            effects = []
            for e in t.get("effects", []):
                if not (isinstance(e, list) and len(e) == 3):
                    raise FileFormatError(f"{twhere}: bad effect {e!r}")
                effects.append((e[0], e[1], e[2]))
            transitions.append(
                Transition(
                    _want(t, "from", str, twhere),
                    _want(t, "to", str, twhere),
                    _want(t, "action", str, twhere),
                    guard,
                    tuple(effects),
                )
            )
        processes.append(
            Process(
                _want(p, "name", str, where),
                tuple(_want(p, "states", list, where)),
                _want(p, "start", str, where),
                tuple(transitions),
            )
        )
    return SharedVariableProgram(name, tuple(variables), tuple(processes))


def load_program(path: str) -> SharedVariableProgram:
    return program_from_json(json_object(read_text(path), path))


def save_program(prog: SharedVariableProgram, path: str) -> None:
    FsPath(path).write_text(canonical_json(program_to_json(prog)))


# -- chain documents ----------------------------------------------------------


def chain_from_json(doc: dict, h: Hda) -> tuple[int, Chain]:
    degree = _want(doc, "degree", int, "chain")
    if degree < 0:
        raise FileFormatError("chain.degree: expected a dimension")
    ids = _id_maps(h.complex).get(degree, {})
    chain: Chain = {}
    for rid, c in _want(doc, "coeffs", dict, "chain").items():
        if rid not in ids:
            raise FileFormatError(f"chain.coeffs: no cube {rid!r} in degree {degree}")
        if not isinstance(c, int) or isinstance(c, bool):
            raise FileFormatError(f"chain.coeffs[{rid}]: expected an integer")
        if c:
            chain[(degree, ids[rid])] = c
    return degree, chain
