"""Canonical JSON documents for automata, directed maps, programs, chains.

Cube keys may be arbitrary hashable values in memory (program models use
strings, tensor products use nested pairs), so files carry rendered string
ids: strings stay themselves, integers print in decimal, tuples render as
"(a,b)" recursively.  Rendering must stay injective per dimension; a
collision is refused at save time.  Face arrays reference ids one
dimension down, so ids only need to be unique within each dimension.

Documents are dumped through ``canonical_json``: sorted keys, two-space
indent, ASCII, trailing newline.  Identical inputs give identical bytes.

Malformed input raises ``FileFormatError`` with a dotted path into the
document; JSON syntax errors keep their line/column.  Semantic validity
(face identities, label conditions) is deliberately not checked here;
callers run ``validate_hda`` and friends on the loaded objects.
"""

from __future__ import annotations

import json
import re
from pathlib import Path as FsPath

from .dimap import CubeMap, ElementaryDimap
from .hda import Hda
from .homology import Chain
from .precubical import Cube, GridCoord, Key, PrecubicalSet
from .programs import (
    Guard,
    Process,
    SharedVariable,
    SharedVariableProgram,
    Transition,
)
from .exterior import Alphabet


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


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# -- HDA files --------------------------------------------------------------


def hda_to_json(h: Hda) -> dict:
    P = h.complex
    _id_maps(P)
    cubes = []
    for n in range(P.max_dim + 1):
        for key in P.cells(n):
            entry: dict = {"id": render_id(key), "dim": n}
            if n:
                d0, d1 = P.face_keys((n, key))
                entry["d0"] = [render_id(k) for k in d0]
                entry["d1"] = [render_id(k) for k in d1]
            else:
                entry["d0"] = []
                entry["d1"] = []
            if n == 1:
                entry["label"] = list(h.labels[key])
            cubes.append(entry)
    cubes.sort(key=lambda e: (e["dim"], e["id"]))
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


def hda_from_json(doc: dict) -> Hda:
    letters = _want(doc, "alphabet", list, "hda")
    if not all(isinstance(x, str) for x in letters):
        raise FileFormatError("hda.alphabet: letters must be strings")
    if len(set(letters)) != len(letters):
        raise FileFormatError("hda.alphabet: repeated letters")
    cells: dict[int, list[Key]] = {}
    seen: dict[int, set[str]] = {}
    faces: dict[Cube, tuple] = {}
    labels: dict[Key, tuple[str, ...]] = {}
    for pos, entry in enumerate(_want(doc, "cubes", list, "hda")):
        where = f"hda.cubes[{pos}]"
        rid = _want(entry, "id", str, where)
        dim = _want(entry, "dim", int, where)
        if dim < 0:
            raise FileFormatError(f"{where}.dim: expected a dimension")
        if rid in seen.setdefault(dim, set()):
            raise FileFormatError(f"{where}: repeated id {rid!r} in dimension {dim}")
        seen[dim].add(rid)
        cells.setdefault(dim, []).append(rid)
        d0 = _want(entry, "d0", list, where)
        d1 = _want(entry, "d1", list, where)
        for arr in (d0, d1):
            for ref in arr:
                if not isinstance(ref, str):
                    raise FileFormatError(f"{where}: face ids must be strings")
        if dim:
            faces[(dim, rid)] = (tuple(d0), tuple(d1))
        if "label" in entry:
            if dim != 1:
                raise FileFormatError(
                    f"{where}: label is only allowed on dimension-1 cubes"
                )
            word = _want(entry, "label", list, where)
            for letter in word:
                if not isinstance(letter, str):
                    raise FileFormatError(f"{where}.label: letters must be strings")
            labels[rid] = tuple(word)
    marks = {}
    for mark in ("initial", "final"):
        refs = _want(doc, mark, list, "hda")
        for ref in refs:
            if not isinstance(ref, str):
                raise FileFormatError(f"hda.{mark}: vertex ids must be strings")
        marks[mark] = frozenset((0, ref) for ref in refs)
    return Hda(
        complex=PrecubicalSet(cells, faces),
        alphabet=Alphabet(letters),
        labels=labels,
        initial=marks["initial"],
        final=marks["final"],
    )


def _read_json(path: str) -> dict:
    try:
        text = FsPath(path).read_text()
    except OSError as e:
        raise FileFormatError(f"{path}: {e.strerror or e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FileFormatError(
            f"{path}: line {e.lineno} column {e.colno}: {e.msg}"
        ) from e
    except RecursionError as e:
        raise FileFormatError(f"{path}: JSON nested too deeply") from e
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: expected a JSON object")
    return doc


def load_hda(path: str) -> Hda:
    doc = _read_json(path)
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
    doc = _read_json(path)
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
    return program_from_json(_read_json(path))


def save_program(prog: SharedVariableProgram, path: str) -> None:
    FsPath(path).write_text(canonical_json(program_to_json(prog)))


# -- chain documents ----------------------------------------------------------


def chain_from_json(doc: dict, h: Hda) -> tuple[int, Chain]:
    degree = _want(doc, "degree", int, "chain")
    if isinstance(degree, bool) or degree < 0:
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
