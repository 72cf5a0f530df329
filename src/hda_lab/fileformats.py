"""Canonical JSON documents for automata, directed maps, programs, chains.

Cube keys may be arbitrary hashable values in memory (program models use
strings, tensor products use nested pairs), so files carry rendered string
ids: strings stay themselves, integers print in decimal, tuples render as
"(a,b)" recursively.  Rendering must stay injective per dimension; a
collision is refused at save time, so ids only need to be unique within
each dimension.

An HDA file holds its cells in one of two forms.  The writer emits a
top-level "dims" list whenever every face resolves: entry n holds the
dimension's sorted ``ids``, its ``faces`` and, on dimension 1, its
``labels``, one word per edge.  ``faces`` is one base64 text of each
cell's 2n face positions into ``dims[n-1].ids``, d0_1..d0_n then
d1_1..d1_n, concatenated in file order, as little-endian unsigned 32-bit
integers.  The loader decodes it in C, accepts only the canonical text,
and resolves every position as it maps them onto the cells below, which
is also where a position past the end is found.  A model with a face that
does not resolve is written as a "cubes" list with one record per cube,
faces by id, so that it still reaches validation; the loader reads that
record form entry by entry.  Two forms of earlier writers are refused:
records that name their faces by position ("face ids must be strings")
and "dims" entries whose faces are a list of integers; running ``model``
or ``tensor`` again writes the model in the current form.

Directed maps, chains and programs are encoded by ``dimap`` and
``programs``, beside their objects, so that only the commands that read
them compile their codecs; their files are read and written here, as
UTF-8 whatever the locale, like every file.

Documents are dumped through ``canonical_json``: sorted keys, ASCII,
trailing newline.  An HDA file in the "dims" form is one line, written by
the C encoder; nobody reads its packed positions by eye, and it loads
whatever its whitespace, so a file of an earlier, indented writer still
loads.  Every other document (reports, record-form HDA files, maps,
programs) is indented by two spaces.  Identical inputs give identical bytes.

Malformed input raises ``FileFormatError`` with a dotted path into the
document; JSON syntax errors keep their line/column.  Semantic validity
(face identities, label conditions, markings, and in the record form faces
that name no cell) is deliberately not checked here; callers run
``validate_hda`` and friends on the loaded objects.
"""

from __future__ import annotations

import json
import sys
from array import array
from binascii import a2b_base64, b2a_base64
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path as FsPath
from typing import TYPE_CHECKING

from .hda import Alphabet, Hda
from .precubical import Cube, Key, PrecubicalSet

if TYPE_CHECKING:
    from .dimap import ElementaryDimap
    from .programs import SharedVariableProgram


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
    """A document's one text: sorted keys, ASCII, a trailing newline.  An
    HDA file (a top-level "dims" key) is one line, which ``json.dumps``
    encodes in C; every other document is indented by two spaces."""
    indent = None if isinstance(doc, dict) and "dims" in doc else 2
    return json.dumps(doc, sort_keys=True, indent=indent) + "\n"


# -- HDA files --------------------------------------------------------------


# Face positions are stored as little-endian unsigned 32-bit integers: an
# array typecode of that size, its bytes swapped on a big-endian host.
_POSITION = next(code for code in "IL" if array(code).itemsize == 4)
_SWAP = sys.byteorder == "big"


def _pack_positions(positions, n: int) -> str:
    """The "faces" text of dimension n: its positions as base64."""
    try:
        packed = array(_POSITION, positions)
    except OverflowError:
        raise FileFormatError(f"dimension {n}: a face position is past {2**32 - 1}") from None
    if _SWAP:
        packed.byteswap()
    return b2a_base64(packed, newline=False).decode("ascii")


def _unpack_positions(text: str, where: str) -> array:
    """The positions of a "faces" text; refuses anything but the one base64
    text of whole positions that ``_pack_positions`` writes."""
    try:
        raw = a2b_base64(text)
    except ValueError:  # bad padding, or a character that is not ASCII
        raw = None
    # Re-encoded, the bytes give the text back only if it was canonical:
    # without stray characters, newlines or bits past the last byte.
    if raw is None or b2a_base64(raw, newline=False) != text.encode("ascii"):
        raise FileFormatError(f"{where}.faces: expected canonical base64 text")
    if len(raw) % 4:
        raise FileFormatError(f"{where}.faces: {len(raw)} bytes are not whole 4-byte positions")
    flat = array(_POSITION)
    flat.frombytes(raw)
    if _SWAP:
        flat.byteswap()
    return flat


def _word(h: Hda, key: Key, rid: str) -> list:
    """The word of an edge as a file holds it; refuses an edge with no word,
    or with a word that is not a sequence of letters."""
    if key not in h.labels:
        raise FileFormatError(f"dimension 1: cell {rid!r} has no label")
    word = h.labels[key]
    try:
        letters = [*word]
    except TypeError:
        letters = [word]
    if not {str}.issuperset(map(type, letters)):
        raise FileFormatError(f"dimension 1: cell {rid!r} has a word that is not letters: {word!r}")
    return letters


def _words(h: Hda, rids) -> list:
    """The words of the edges, in basis order, as a file holds them.  A
    column of tuples of letters passes at once; otherwise each edge is read
    by ``_word``, in basis order, so that the first bad edge is named."""
    edges = h.complex.cells(1)
    words = [*map(h.labels.get, edges)]
    if {tuple}.issuperset(map(type, words)) and {str}.issuperset(
        map(type, chain.from_iterable(words))
    ):
        return [*map(list, words)]
    return [*map(_word, repeat(h), edges, rids)]


def hda_to_json(h: Hda) -> dict:
    P = h.complex
    # The rendered ids per dimension, in basis order, each rendered once;
    # string keys are their own ids, distinct as the keys are.  _id_maps only
    # runs to name the first key that does not render or collides.
    ids = []
    for n in range(P.max_dim + 1):
        keys = P.cells(n)
        if {str}.issuperset(map(type, keys)):
            ids.append(keys)
            continue
        try:
            rids = [*map(render_id, keys)]
        except FileFormatError:
            rids = []
        if len(set(rids)) < len(keys):
            _id_maps(P)
        ids.append(rids)
    if all(None not in P.face_positions(n) for n in range(1, P.max_dim + 1)):
        # One entry per dimension: the ids sorted, and the cells' face
        # positions concatenated in that order, each a position among the
        # sorted ids one dimension down, packed into one text.
        field, body = "dims", []
        rank: list[int] = []  # per basis position one dimension down: the file's position
        for n, rids in enumerate(ids):
            order = sorted(range(len(rids)), key=rids.__getitem__)
            flats = chain.from_iterable(map(P.face_positions(n).__getitem__, order) if n else ())
            entry = {
                "ids": [*map(rids.__getitem__, order)],
                "faces": _pack_positions([*map(rank.__getitem__, flats)], n),
            }
            if n == 1:
                words = _words(h, rids)
                entry["labels"] = [*map(words.__getitem__, order)]
            body.append(entry)
            rank = [0] * len(order)
            for pos, cell in enumerate(order):
                rank[cell] = pos
    else:
        # A face that does not resolve is written by id, in one record per
        # cell, so that a damaged model still reaches validation.
        field, body = "cubes", []
        for n, rids in enumerate(ids):
            records = []
            for key, rid in zip(P.cells(n), rids):
                d0 = d1 = []
                if n:
                    try:
                        d0, d1 = P.face_keys((n, key))
                    except KeyError:
                        msg = f"dimension {n}: cell {rid!r} has no face entry"
                        raise FileFormatError(msg) from None
                    d0, d1 = [*map(render_id, d0)], [*map(render_id, d1)]
                records.append({"id": rid, "dim": n, "d0": d0, "d1": d1})
                if n == 1:
                    records[-1]["label"] = _word(h, key, rid)
            body += sorted(records, key=itemgetter("id"))
    return {
        "alphabet": list(h.alphabet.letters),
        field: body,
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


def _read_dims(dims: list) -> tuple[PrecubicalSet, dict]:
    """The complex and labels of a "dims" list, a column at a time; raises
    the first defect, dimension by dimension.  Every face must name a cell,
    so that the faces are resolved as they are read."""
    cells: dict[int, dict[str, int]] = {}
    faces: dict[int, list[tuple[int, ...]]] = {}
    labels: dict[Key, tuple[str, ...]] = {}
    # The positions of dimension n - 1; read through them, the faces share one
    # int per cell, not one per face as decoded (about 4.5 MB on phil5).
    below: list[int] = []
    for n, entry in enumerate(dims):
        where = f"hda.dims[{n}]"
        if type(entry) is not dict:
            raise FileFormatError(f"{where}: expected an object")
        ids = _want(entry, "ids", list, where)
        if type(entry.get("faces")) is list:
            raise FileFormatError(
                f"{where}.faces: a list of positions, as an earlier writer made; "
                "run 'model' or 'tensor' again to write this file"
            )
        text = _want(entry, "faces", str, where)
        extra = entry.keys() - {"ids", "faces", "labels"}
        if extra:
            raise FileFormatError(f"{where}: unexpected field {min(map(repr, extra))}")
        if "labels" in entry and n != 1:
            raise FileFormatError(f"{where}: labels are only allowed on dimension 1")
        if not {str}.issuperset(map(type, ids)):
            raise FileFormatError(f"{where}.ids: ids must be strings")
        table = cells[n] = dict(zip(ids, range(len(ids))))
        if len(table) < len(ids):
            rid = next(rid for pos, rid in enumerate(ids) if table[rid] != pos)
            raise FileFormatError(f"{where}.ids: repeated id {rid!r}")
        flat = _unpack_positions(text, where)
        if len(flat) != 2 * n * len(ids):
            raise FileFormatError(
                f"{where}.faces: expected {2 * n} positions per cell, "
                f"got {len(flat)} for {len(ids)} cells"
            )
        if n:
            # The remap is also the range check: only a position past the
            # end of dimension n - 1 raises in it.
            try:
                faces[n] = [*zip(*[map(below.__getitem__, flat)] * (2 * n))]
            except IndexError:
                raise FileFormatError(
                    f"{where}.faces: position {max(flat)} is past the end of dimension {n - 1}"
                ) from None
        below = [*table.values()]
        if "labels" in entry:
            words = _want(entry, "labels", list, where)
            if len(words) != len(ids):
                raise FileFormatError(
                    f"{where}.labels: expected one word per edge, "
                    f"got {len(words)} for {len(ids)} edges"
                )
            if not {list}.issuperset(map(type, words)):
                raise FileFormatError(f"{where}.labels: expected a list per word")
            if not {str}.issuperset(map(type, chain.from_iterable(words))):
                raise FileFormatError(f"{where}.labels: letters must be strings")
            # One tuple per distinct word, shared by its edges: phil5's
            # 8,770 edges carry 30 words.
            words = [*map(tuple, words)]
            shared = dict(zip(words, words))
            labels = dict(zip(ids, map(shared.__getitem__, words)))
    return PrecubicalSet.from_positions(cells, faces), labels


def _cube_error(entry, where: str, cells: dict) -> None:
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
        if not all(isinstance(ref, str) for ref in arr):
            raise FileFormatError(f"{where}: face ids must be strings")
    if not dim and (entry["d0"] or entry["d1"]):
        raise FileFormatError(f"{where}: a vertex has no faces")
    if "label" in entry:
        if dim != 1:
            raise FileFormatError(f"{where}: label is only allowed on dimension-1 cubes")
        if not all(isinstance(a, str) for a in _want(entry, "label", list, where)):
            raise FileFormatError(f"{where}.label: letters must be strings")


def _read_by_entry(entries: list) -> tuple[PrecubicalSet, dict]:
    """The complex and labels of any cube list, entry by entry; raises the
    first entry's error, in file order.  The key-based constructor resolves
    the faces and keeps an entry whose faces are not cells for the validator."""
    cells: dict[int, dict[str, None]] = {}
    faces: dict[Cube, tuple[list, list]] = {}
    labels: dict[Key, tuple[str, ...]] = {}
    for pos, entry in enumerate(entries):
        _cube_error(entry, f"hda.cubes[{pos}]", cells)
        rid, dim = entry["id"], entry["dim"]
        cells.setdefault(dim, {})[rid] = None
        if dim:
            faces[(dim, rid)] = (entry["d0"], entry["d1"])
        if "label" in entry:
            labels[rid] = tuple(entry["label"])
    return PrecubicalSet(cells, faces), labels


def hda_from_json(doc: dict) -> Hda:
    letters = _want(doc, "alphabet", list, "hda")
    try:
        alphabet = Alphabet(letters)
    except ValueError as e:
        raise FileFormatError(f"hda.alphabet: {e}") from None
    if "cubes" not in doc:
        complex, labels = _read_dims(_want(doc, "dims", list, "hda"))
    elif "dims" in doc:
        raise FileFormatError("hda: both 'dims' and 'cubes'; a file holds one of them")
    else:
        complex, labels = _read_by_entry(_want(doc, "cubes", list, "hda"))
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
        return FsPath(path).read_text(encoding="utf-8")
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
    FsPath(path).write_text(canonical_json(hda_to_json(h)), encoding="utf-8")


# -- dimap and program files ---------------------------------------------------
# Their codecs live beside the objects, in ``dimap`` and ``programs``, and
# load with them: few commands read these files.


def load_dimap(path: str) -> ElementaryDimap:
    from .dimap import dimap_from_json

    doc = json_object(read_text(path), path)
    base = FsPath(path).parent
    source = load_hda(str(base / _want(doc, "source", str, "dimap")))
    target = load_hda(str(base / _want(doc, "target", str, "dimap")))
    return dimap_from_json(doc, source, target)


def save_dimap(
    f: ElementaryDimap, path: str, source_ref: str, target_ref: str
) -> None:
    from .dimap import dimap_to_json

    text = canonical_json(dimap_to_json(f, source_ref, target_ref))
    FsPath(path).write_text(text, encoding="utf-8")


def load_program(path: str) -> SharedVariableProgram:
    from .programs import program_from_json

    return program_from_json(json_object(read_text(path), path))


def save_program(prog: SharedVariableProgram, path: str) -> None:
    from .programs import program_to_json

    FsPath(path).write_text(canonical_json(program_to_json(prog)), encoding="utf-8")
