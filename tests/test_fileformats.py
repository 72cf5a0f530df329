import itertools
import json
import random
import traceback

import pytest

from hda_lab.dimap import (
    chain_from_json,
    dimap_from_json,
    dimap_to_json,
    parse_grid_coord,
    pushforward_cube,
    render_grid_coord,
    validate_dimap,
)
from hda_lab.fileformats import (
    FileFormatError,
    canonical_json,
    hda_from_json,
    hda_to_json,
    load_dimap,
    load_hda,
    load_program,
    render_id,
    save_hda,
    save_program,
)
from hda_lab.hda import validate_hda
from hda_lab.homology import all_homology
from hda_lab.models import (
    dining_philosophers,
    directed_torus,
    labeled_circle,
    lock_counter,
    lock_spec,
    peterson,
)
from hda_lab.products import tensor_hda
from hda_lab.programs import program_from_json, program_to_hda, program_to_json

from conftest import dims_form, id_form, pack_faces, records, unpack_faces
from test_dimap import subdivision_dimap, transposition_dimap


def homology_profile(P):
    return {n: (g.free_rank, g.torsion) for n, g in all_homology(P).items()}


def test_render_id():
    assert render_id("left") == "left"
    assert render_id(7) == "7"
    assert render_id(-3) == "-3"
    assert render_id(("a", 2)) == "(a,2)"
    assert render_id((("x", 0), "y")) == "((x,0),y)"
    assert render_id(()) == "()"
    with pytest.raises(FileFormatError):
        render_id(True)
    with pytest.raises(FileFormatError):
        render_id(frozenset({1}))


def test_hda_round_trip_program_models():
    for prog in (peterson(), lock_counter(), dining_philosophers(3)):
        h = program_to_hda(prog)
        doc = hda_to_json(h)
        h2 = hda_from_json(doc)
        assert validate_hda(h2) == []
        assert homology_profile(h2.complex) == homology_profile(h.complex)
        assert sorted(h2.labels.values()) == sorted(h.labels.values())
        assert len(h2.initial) == len(h.initial)
        assert len(h2.final) == len(h.final)
        # A reloaded model dumps to the identical document.
        assert canonical_json(hda_to_json(h2)) == canonical_json(doc)


def test_hda_round_trip_tuple_keys():
    h = tensor_hda(labeled_circle(["a"]), labeled_circle(["b"]))
    assert any(isinstance(key, tuple) for key in h.complex.cells(2))
    doc = hda_to_json(h)
    h2 = hda_from_json(doc)
    assert validate_hda(h2) == []
    assert homology_profile(h2.complex) == homology_profile(h.complex)
    assert canonical_json(hda_to_json(h2)) == canonical_json(doc)


def test_hda_round_trip_word_labeled_torus():
    h = directed_torus([("a1",), ("a2",)], [("b",)])
    assert any(isinstance(key, tuple) for key in h.complex.cells(2))
    doc = hda_to_json(h)
    h2 = hda_from_json(doc)
    assert validate_hda(h2) == []
    assert homology_profile(h2.complex) == homology_profile(h.complex)
    assert canonical_json(hda_to_json(h2)) == canonical_json(doc)


def test_canonical_json_shape():
    doc = hda_to_json(lock_spec())
    text = canonical_json(doc)
    assert text == canonical_json(hda_to_json(lock_spec()))
    assert text.endswith("}\n") and not text.endswith("\n\n")
    keys = list(json.loads(text))
    assert keys == sorted(keys)


def _fixture_docs():
    from hda_lab import cli, models
    from conftest import random_circle, random_torus, suite_rng

    docs = {
        f"fixture-{name}": hda_to_json(build(models))
        for name, build in cli._FIXTURES.items()
    }
    docs["tensor"] = hda_to_json(tensor_hda(labeled_circle(["a"]), labeled_circle(["b", "c"])))
    docs["phil3"] = hda_to_json(program_to_hda(dining_philosophers(3)))
    rng = suite_rng("canonical-json")
    for i in range(4):
        docs[f"stream-circle-{i}"] = hda_to_json(random_circle(rng))
        docs[f"stream-torus-{i}"] = hda_to_json(random_torus(rng))
    docs["program-peterson"] = program_to_json(peterson())
    return docs


def _adversarial_docs():
    base = id_form(hda_to_json(directed_torus([("a",)], [("b",)])))

    def edited(change):
        doc = json.loads(json.dumps(base))
        change(doc)
        return doc

    def letters(names):
        def change(doc):
            doc["alphabet"] = list(names)
            doc["cubes"][-1]["label"] = list(names)
        return change

    def first(**fields):
        def change(doc):
            doc["cubes"][0].update(fields)
        return change

    def by_position(change):
        """Records with faces as positions, which the loader refuses, with
        ``change`` made to every cube with faces."""
        doc = records(hda_to_json(directed_torus([("a",)], [("b",)])))
        for entry in doc["cubes"]:
            if entry["dim"]:
                change(entry)
        return doc

    def dims(change):
        """The dims form, with ``change`` made to its "dims" list."""
        doc = hda_to_json(directed_torus([("a",)], [("b",)]))
        change(doc["dims"])
        return doc

    weird = ['q"uote', "back\\slash", "ctl\x00\x1f\n\t", "\u2028", "\x7f", "\u00e9"]
    return {
        "non-ascii-letters": edited(letters(["\u00e9", "\u65e5\u672c", "\U0001F600"])),
        "lone-surrogates": edited(letters(["\ud800", "x\udfff", "\udbff\udc00"])),
        "odd-ids": edited(lambda doc: [
            e.update(id=w + e["id"], d0=[w + r for r in e["d0"]])
            for e, w in zip(doc["cubes"], itertools.cycle(weird))
        ]),
        "empty": {"alphabet": [], "cubes": [], "final": [], "initial": []},
        "empty-lists": edited(letters([])),
        "extra-key": edited(first(note="x")),
        "int-id": edited(first(id=3)),
        "bool-dim": edited(first(dim=True)),
        "float-dim": edited(first(dim=1.5)),
        "tuple-faces": edited(first(d0=("a", "b"))),
        "int-face": edited(first(d1=["a", 2])),
        "label-not-a-list": edited(first(label="ab")),
        "label-with-int": edited(first(label=["a", None])),
        "no-faces": edited(lambda doc: doc["cubes"][0].pop("d0")),
        "cube-not-a-dict": edited(lambda doc: doc["cubes"].extend([3, None, ["x"], {}])),
        "nested-cube": edited(first(d0=[{"z": [1, {"y": []}], "a": {}}])),
        "marks-not-strings": edited(lambda doc: doc.update(initial=[0], final=["v", 1.5])),
        "extra-top-key": edited(lambda doc: doc.update(version=2)),
        "missing-top-key": edited(lambda doc: doc.pop("final")),
        "cubes-not-a-list": edited(lambda doc: doc.update(cubes={"a": [1]})),
        "alphabet-tuple": edited(lambda doc: doc.update(alphabet=("a",))),
        "big-dim": edited(first(dim=10**30)),
        **{
            f"positions-{name}": by_position(change)
            for name, change in {
                "as-written": lambda e: None,
                "bool": lambda e: e.update(d0=[True] * len(e["d0"])),
                "float": lambda e: e.update(d1=[1.0] * len(e["d1"])),
                "negative": lambda e: e.update(d0=[-1] * len(e["d0"])),
                "huge": lambda e: e.update(d1=[10**30] * len(e["d1"])),
                "mixed": lambda e: e.update(d0=[*e["d0"], "a"]),
                "uneven": lambda e: e.update(d0=[*e["d0"], 7], d1=[]),
                "percent-id": lambda e: e.update(id="%d%s%%"),
            }.items()
        },
        **{
            f"dims-{name}": dims(change)
            for name, change in {
                "as-written": lambda d: None,
                "bool-faces": lambda d: d[1].update(faces=[True, False] * 4),
                "float-face": lambda d: d[2].update(faces=[1.5, *unpack_faces(d[2]["faces"])[1:]]),
                "big-ints": lambda d: d[1].update(faces=[10**30, -(10**40), 0, 2**63, -1]),
                "int-and-str": lambda d: d[1].update(faces=[1, "a", 2]),
                "empty-lists": lambda d: d.append({"ids": [], "faces": [], "labels": []}),
                "escaped-ids": lambda d: d[0].update(ids=weird),
                "non-ascii-ids": lambda d: d[2].update(ids=["\u00e9", "\u65e5\u672c", "\U0001F600", "\ud800"]),
                "words-not-lists": lambda d: d[1].update(labels=["a", 3, None, ["b"], ("c",)]),
                "word-with-int": lambda d: d[1].update(labels=[["a", 1], []]),
                "nested-words": lambda d: d[1].update(labels=[[["a"]], [[]]]),
                "empty-words": lambda d: d[1].update(labels=[[], [], ["a"]]),
                "extra-keys": lambda d: d[0].update(note={"x": [1, 2]}, zeta=None, alpha=[]),
                "int-key": lambda d: d.append({1: [2]}),
                "not-objects": lambda d: d.extend([[1, "x"], "s", None, {}]),
            }.items()
        },
        "dims-empty": {"alphabet": [], "dims": [], "final": [], "initial": []},
        "dims-not-a-list": {"alphabet": [], "dims": {"a": [1]}, "final": []},
        "not-hda": {"b": [1, 2.5, "x"], "a": {"c": None, "b": True}, "": []},
        "list": [1, {"b": 2, "a": []}],
    }


CANONICAL_DOCS = {**_fixture_docs(), **_adversarial_docs()}


@pytest.mark.parametrize("name", list(CANONICAL_DOCS))
def test_canonical_json_equals_json_dumps(name):
    # An HDA file in the "dims" form is one line; any other document is indented.
    doc = CANONICAL_DOCS[name]
    if isinstance(doc, dict) and "dims" in doc:
        assert canonical_json(doc) == json.dumps(doc, sort_keys=True) + "\n"
    else:
        assert canonical_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _parse_error(doc) -> str:
    with pytest.raises(FileFormatError) as e:
        hda_from_json(doc)
    return str(e.value)


def _set(path, value):
    """An edit that sets doc[path[0]][path[1]]... to value."""
    def edit(doc):
        *outer, last = path
        for step in outer:
            doc = doc[step]
        doc[last] = value
    return edit


def _drop(path):
    def edit(doc):
        *outer, last = path
        for step in outer:
            doc = doc[step]
        del doc[last]
    return edit


# The lock-spec document: cubes 0-2 are the vertices v, w0, w1 and cubes
# 3-6 the edges x++_0, x++_1, x--_0, x--_1, in file order.
HDA_PARSE_ERRORS = [
    (_drop(["alphabet"]), "hda: missing field 'alphabet'"),
    (_set(["alphabet"], "ab"), "hda.alphabet: expected list"),
    (_set(["alphabet", 1], 3), "hda.alphabet: letters must be nonempty strings, got 3"),
    (_set(["alphabet", 1], "x++_0"), "hda.alphabet: alphabet letters must be distinct"),
    (_set(["alphabet", 1], "x\udc00"), "hda.alphabet: letter 'x\\udc00' holds a lone surrogate"),
    (_drop(["cubes"]), "hda: missing field 'dims'"),
    (_set(["cubes"], {}), "hda.cubes: expected list"),
    (_set(["cubes", 1], 5), "hda.cubes[1]: expected an object"),
    (_set(["cubes", 1], ["id", "dim"]), "hda.cubes[1]: expected an object"),
    (_set(["cubes", 1], None), "hda.cubes[1]: expected an object"),
    (_drop(["cubes", 2, "id"]), "hda.cubes[2]: missing field 'id'"),
    (_set(["cubes", 2, "id"], 7), "hda.cubes[2].id: expected str"),
    (_drop(["cubes", 2, "dim"]), "hda.cubes[2]: missing field 'dim'"),
    (_set(["cubes", 2, "dim"], "0"), "hda.cubes[2].dim: expected int"),
    (_set(["cubes", 2, "dim"], False), "hda.cubes[2].dim: expected int"),
    (_set(["cubes", 2, "dim"], 1.0), "hda.cubes[2].dim: expected int"),
    (_set(["cubes", 2, "dim"], -1), "hda.cubes[2].dim: expected a dimension"),
    (_set(["cubes", 2, "id"], "v"), "hda.cubes[2]: repeated id 'v' in dimension 0"),
    (_set(["cubes", 6, "id"], "x++_1"), "hda.cubes[6]: repeated id 'x++_1' in dimension 1"),
    (_drop(["cubes", 4, "d0"]), "hda.cubes[4]: missing field 'd0'"),
    (_set(["cubes", 4, "d1"], "w1"), "hda.cubes[4].d1: expected list"),
    (_set(["cubes", 4, "d0", 0], 0), "hda.cubes[4]: face ids must be strings"),
    (_set(["cubes", 5, "d1", 0], None), "hda.cubes[5]: face ids must be strings"),
    (_set(["cubes", 0, "d1"], [["v"]]), "hda.cubes[0]: face ids must be strings"),
    (_set(["cubes", 0, "d0"], ["w0"]), "hda.cubes[0]: a vertex has no faces"),
    (_set(["cubes", 2, "d1"], ["v", "w0"]), "hda.cubes[2]: a vertex has no faces"),
    (
        _set(["cubes", 1, "label"], ["x++_0"]),
        "hda.cubes[1]: label is only allowed on dimension-1 cubes",
    ),
    (_set(["cubes", 3, "label"], "x++_0"), "hda.cubes[3].label: expected list"),
    (_set(["cubes", 3, "label"], ["x++_0", 3]), "hda.cubes[3].label: letters must be strings"),
    (_drop(["initial"]), "hda: missing field 'initial'"),
    (_set(["final"], "v"), "hda.final: expected list"),
    (_set(["initial"], ["v", 0]), "hda.initial: vertex ids must be strings"),
    (_set(["final"], [None]), "hda.final: vertex ids must be strings"),
    # Of several defects in one entry, the first in field order is named.
    (_set(["cubes", 4], {"id": 1, "dim": True}), "hda.cubes[4].id: expected str"),
    (_set(["cubes", 4], {"id": "w1", "dim": 0}), "hda.cubes[4]: repeated id 'w1' in dimension 0"),
    (
        _set(["cubes", 4], {"id": "e", "dim": 1, "d0": ["v"], "d1": [2], "label": 3}),
        "hda.cubes[4]: face ids must be strings",
    ),
    (
        _set(["cubes", 0, "label"], "x"),
        "hda.cubes[0]: label is only allowed on dimension-1 cubes",
    ),
    # The first defective entry is named, not a later one.
    (
        lambda doc: (_set(["cubes", 5, "dim"], -2)(doc), _drop(["cubes", 6, "id"])(doc)),
        "hda.cubes[5].dim: expected a dimension",
    ),
]


def test_hda_parse_errors():
    good = id_form(hda_to_json(lock_spec()))
    assert [e["id"] for e in good["cubes"]] == [
        "v", "w0", "w1", "x++_0", "x++_1", "x--_0", "x--_1"
    ]
    for edit, message in HDA_PARSE_ERRORS:
        doc = json.loads(canonical_json(good))
        edit(doc)
        assert _parse_error(doc) == message


def test_hda_loader_keeps_semantic_defects_for_validation():
    # Dangling faces, missing labels and unknown markings parse fine; the
    # validators report them, so a command can show the real diagnosis.
    good = id_form(hda_to_json(program_to_hda(lock_counter())))

    doc = json.loads(canonical_json(good))
    edge = next(e for e in doc["cubes"] if e["dim"] == 1)
    edge["d0"][0] = "nowhere"
    kinds = {v.kind for v in validate_hda(hda_from_json(doc))}
    assert "dangling-face" in kinds

    doc = json.loads(canonical_json(good))
    edge = next(e for e in doc["cubes"] if e["dim"] == 1)
    del edge["label"]
    kinds = {v.kind for v in validate_hda(hda_from_json(doc))}
    assert "unlabeled-edge" in kinds

    doc = json.loads(canonical_json(good))
    edge = next(e for e in doc["cubes"] if e["dim"] == 1)
    edge["label"] = ["not-an-action"]
    kinds = {v.kind for v in validate_hda(hda_from_json(doc))}
    assert "unknown-letter" in kinds

    doc = json.loads(canonical_json(good))
    doc["initial"] = ["nowhere"]
    kinds = {v.kind for v in validate_hda(hda_from_json(doc))}
    assert "initial-not-in-complex" in kinds

    doc = json.loads(canonical_json(good))
    square = next(e for e in doc["cubes"] if e["dim"] == 2)
    square["d1"] = square["d1"][:1]
    kinds = {v.kind for v in validate_hda(hda_from_json(doc))}
    assert "face-arity" in kinds


# -- the HDA loader before the whole-dimension pass, as reference ---------------


def reference_hda_from_json(doc: dict):
    """hda_from_json as it was when every document was read entry by entry,
    for documents that name faces by id."""
    from hda_lab.hda import Alphabet
    from hda_lab.fileformats import _cube_error, _want
    from hda_lab.hda import Hda
    from hda_lab.precubical import PrecubicalSet

    letters = _want(doc, "alphabet", list, "hda")
    try:
        alphabet = Alphabet(letters)
    except ValueError as e:
        raise FileFormatError(f"hda.alphabet: {e}") from None
    strings = {str}.issuperset
    cells, faces, unresolved, labels = {}, {}, {}, {}
    entries = _want(doc, "cubes", list, "hda")
    top, ordered = -1, True
    for pos, entry in enumerate(entries):
        if not (
            type(entry) is dict
            and type(rid := entry.get("id")) is str
            and type(dim := entry.get("dim")) is int
            and dim >= 0
            and rid not in cells.get(dim, ())
            and type(d0 := entry.get("d0")) is list
            and type(d1 := entry.get("d1")) is list
            and strings(map(type, refs := d0 + d1))
            and ("label" not in entry or dim == 1 and type(entry["label"]) is list
                 and strings(map(type, entry["label"])))
        ):
            _cube_error(entry, f"hda.cubes[{pos}]", cells)
            rid, dim, d0, d1 = entry["id"], entry["dim"], entry["d0"], entry["d1"]
            refs = d0 + d1
        if dim != top:
            ordered = ordered and dim > top
            top = dim
            table = cells.setdefault(dim, {})
            below = cells.get(dim - 1, {})
            flats = faces.setdefault(dim, [])
        table[rid] = len(table)
        if dim and ordered:
            try:
                flat = tuple(map(below.__getitem__, refs)) if len(d0) == dim == len(d1) else None
            except KeyError:
                flat = None
            flats.append(flat)
            if flat is None:
                unresolved[(dim, rid)] = (tuple(d0), tuple(d1))
        if "label" in entry:
            labels[rid] = tuple(entry["label"])
    marks = {}
    for mark in ("initial", "final"):
        refs = _want(doc, mark, list, "hda")
        for ref in refs:
            if not isinstance(ref, str):
                raise FileFormatError(f"hda.{mark}: vertex ids must be strings")
        marks[mark] = frozenset((0, ref) for ref in refs)
    if ordered:
        complex = PrecubicalSet.from_positions(cells, faces)
        complex._unresolved = unresolved
    else:
        complex = PrecubicalSet(
            cells, {(e["dim"], e["id"]): (e["d0"], e["d1"]) for e in entries if e["dim"]}
        )
    return Hda(complex, alphabet, labels, marks["initial"], marks["final"])


def _loaded(load, doc):
    """What a loader makes of a document, or the text of the error it raised."""
    try:
        return _summary(load(doc))
    except FileFormatError as e:
        return str(e)


def _summary(h):
    """A loaded automaton's fields, in order where order is kept."""
    P = h.complex
    return (
        [(n, [*index.items()]) for n, index in P._index.items()],
        P._faces,
        P._unresolved,
        [*h.labels.items()],
        h.alphabet,
        h.initial,
        h.final,
    )


def _hda_documents():
    """The loader's inputs, faces by id: documents of every fixture, model stream and
    damaged model, every parse-error edit, and each of them with its cubes
    reordered or its faces broken."""
    from conftest import random_circle, random_torus, suite_rng
    from test_precubical import damaged_models

    docs = [id_form(doc) if "dims" in doc else doc for doc in _fixture_docs().values()]
    docs += [
        doc for name, doc in _adversarial_docs().items() if not name.startswith("dims-")
    ]
    rng = suite_rng("loader-reference")
    docs += [id_form(hda_to_json(random_circle(rng))) for _ in range(10)]
    docs += [id_form(hda_to_json(random_torus(rng))) for _ in range(10)]
    for h in damaged_models():
        try:
            docs.append(id_form(hda_to_json(h)))
        except FileFormatError:  # a cell without faces or an edge without a label
            pass
    good = id_form(hda_to_json(lock_spec()))
    for edit, message in HDA_PARSE_ERRORS:
        doc = json.loads(canonical_json(good))
        edit(doc)
        docs.append(doc)
    out = []
    for doc in docs:
        out.append(doc)
        cubes = doc.get("cubes") if type(doc) is dict else None
        if type(cubes) is not list or len(cubes) < 2:
            continue
        dim = lambda e: e["dim"] if type(e) is dict and type(e.get("dim")) is int else 0
        for order in (
            cubes[::-1],
            rng.sample(cubes, len(cubes)),
            sorted(cubes, key=lambda e: -dim(e)),
        ):
            out.append({**doc, "cubes": order})
        edges = [
            pos for pos, e in enumerate(cubes)
            if type(e) is dict and e.get("dim") == 1 and type(e.get("d0")) is list and e["d0"]
        ]
        for change in (
            lambda e: e["d0"].__setitem__(0, "nowhere"),
            lambda e: e.__setitem__("d0", []),
            lambda e: e.__setitem__("d1", e["d1"] * 2),
            lambda e: e["d0"].__setitem__(0, e["id"]),  # a cell, one dimension too high
        ):
            if edges:
                broken = json.loads(json.dumps(doc))
                change(broken["cubes"][edges[0]])
                out.append(broken)
        # Without its edges, a document's squares name no cells.
        out.append({**doc, "cubes": [e for e in cubes if dim(e) != 1]})
    return out


def _a_vertex_has_faces(doc) -> bool:
    cubes = doc.get("cubes") if type(doc) is dict else None
    return type(cubes) is list and any(
        type(e) is dict and e.get("dim") == 0 and (e.get("d0") or e.get("d1")) for e in cubes
    )


def test_hda_loader_matches_the_reference():
    by_dimension = by_entry = 0
    for doc in _hda_documents():
        if _a_vertex_has_faces(doc):  # refused now, read before
            assert isinstance(_loaded(hda_from_json, doc), str)
            continue
        want = _loaded(reference_hda_from_json, doc)
        if want == "hda: missing field 'cubes'":  # named by the form the writer emits
            want = "hda: missing field 'dims'"
        assert _loaded(hda_from_json, doc) == want
        # The same document with one entry per dimension, where it can be.
        dims = None if isinstance(want, str) else dims_form(doc)
        if dims is None:
            by_entry += 1
        else:
            assert _loaded(hda_from_json, dims) == want
            by_dimension += 1
    assert by_dimension > 100 and by_entry > 100, (by_dimension, by_entry)


def _canonical_models():
    """Every kind of HDA the suite writes: fixtures, compiled programs,
    circles, tensor products and four philosophers."""
    from conftest import random_circle, random_torus, suite_rng
    from hda_lab import cli, models

    out = {f"fixture-{name}": build(models) for name, build in cli._FIXTURES.items()}
    for name, prog in (("peterson", peterson()), ("lock-counter", lock_counter()),
                       ("phil3", dining_philosophers(3)), ("phil4", dining_philosophers(4))):
        out[name] = program_to_hda(prog)
    out["circle"] = labeled_circle(["a1", "a2"])
    out["word-torus"] = directed_torus([("a1",), ("a2",)], [("b",)])
    out["tensor"] = tensor_hda(models.lock_spec(), models.torus_hda())
    rng = suite_rng("loader-canonical")
    for k in range(6):
        out[f"stream-circle-{k}"] = random_circle(rng)
        out[f"stream-torus-{k}"] = random_torus(rng)
    return out


def test_canonical_files_are_read_a_dimension_at_a_time(tmp_path, monkeypatch):
    import hda_lab.fileformats as ff

    def entry_by_entry(entries):
        raise AssertionError("a canonical file was read entry by entry")

    for name, h in _canonical_models().items():
        path = tmp_path / f"{name}.json"
        save_hda(h, str(path))
        doc = json.loads(path.read_text())
        assert "cubes" not in doc and {type(e["faces"]) for e in doc["dims"]} == {str}, name
        with monkeypatch.context() as m:
            m.setattr(ff, "_read_by_entry", entry_by_entry)
            again = load_hda(str(path))
        want = reference_hda_from_json(id_form(doc))
        assert _summary(again) == _summary(want), name
        # Files that name their faces by id, one record per cube, as files
        # written before did; records that name them by position are refused.
        assert _summary(hda_from_json(id_form(doc))) == _summary(want), name
        if any(entry["faces"] for entry in doc["dims"]):
            first = next(pos for pos, e in enumerate(records(doc)["cubes"]) if e["dim"])
            assert _parse_error(records(doc)) == f"hda.cubes[{first}]: face ids must be strings"
        P = again.complex
        assert not P._unresolved, name
        assert all(None not in P.face_positions(n) for n in P.dims()), name
        save_hda(again, str(tmp_path / "again.json"))
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes(), name


# -- faces by id and by dimension -----------------------------------------------


def _model_zoo():
    """Every fixture, the conftest streams and the damaged-model stream, and
    the rest of the model zoo."""
    from hda_lab import models
    from test_precubical import _models

    yield from _models()
    yield models.labeled_interval(["a", "b", "a"])
    yield models.directed_circle([("a", "b"), ("c",)])
    yield models.two_phase_torus()
    yield directed_torus([("a1",), ("a2",)], [("b",)])
    yield tensor_hda(lock_spec(), models.klein_hda())
    yield program_to_hda(dining_philosophers(4))


def _read_alike(doc):
    """Load an HDA document in each form it can take: records by id, and one
    entry per dimension; both give one model, or None when the records are
    refused."""
    if isinstance(_loaded(hda_from_json, id_form(doc)), str):
        return None
    by_id = hda_from_json(id_form(doc))
    report = [(v.kind, v.cube, v.data) for v in validate_hda(by_id)]
    dims = dims_form(doc)
    for other in map(hda_from_json, [dims] if dims else []):
        assert _summary(other) == _summary(by_id)
        assert [(v.kind, v.cube, v.data) for v in validate_hda(other)] == report
    return by_id


def test_both_face_forms_load_to_the_same_model():
    written = by_dimension = 0
    for h in _model_zoo():
        try:
            doc = hda_to_json(h)
        except FileFormatError:  # a cell without faces, or an edge without a word of letters
            continue
        loaded = _read_alike(doc)
        assert loaded is not None
        written += 1
        if "dims" in doc:
            by_dimension += 1
            assert dims_form(doc) == doc
        # Read back, the model is written as it was.
        assert canonical_json(hda_to_json(loaded)) == canonical_json(doc)
    assert written > 100 and by_dimension > 60, (written, by_dimension)


def test_both_face_forms_load_alike_in_any_cube_order():
    read = 0
    for doc in _hda_documents():
        if isinstance(_loaded(hda_from_json, doc), str):
            continue
        _read_alike(doc)
        read += 1
    assert read > 1000, read


# -- the HDA writer before the one rendering per cell, as reference -------------


def reference_hda_to_json(h) -> dict:
    """hda_to_json as it was when every face reference was rendered again,
    one record per cube, with the writer's refusal of a word that holds a
    letter that is not a string."""
    P = h.complex
    for n in range(P.max_dim + 1):
        table = {}
        for key in P.cells(n):
            rid = render_id(key)
            if rid in table:
                raise FileFormatError(f"dimension {n} ids collide after rendering: {rid!r}")
            table[rid] = key
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
                if not all(isinstance(a, str) for a in entry["label"]):
                    raise FileFormatError(
                        f"dimension 1: cell {render_id(key)!r} has a word that is not letters: "
                        f"{h.labels[key]!r}"
                    )
            cubes.append(entry)
    cubes.sort(key=lambda e: (e["dim"], e["id"]))
    return {
        "alphabet": list(h.alphabet.letters),
        "cubes": cubes,
        "initial": sorted(render_id(key) for _, key in h.initial),
        "final": sorted(render_id(key) for _, key in h.final),
    }


def _written(to_json, h):
    """The document, with its cube records' key order, or the error raised."""
    try:
        doc = to_json(h)
    except Exception as e:
        return type(e), str(e)
    return doc, [list(entry) for entry in doc["cubes"]]


def reference_hda_to_json_naming_cells(h) -> dict:
    """reference_hda_to_json, with its bare KeyError for a cell without a
    face entry, or an edge without a label, read as the FileFormatError the
    writer raises for it."""
    try:
        return reference_hda_to_json(h)
    except KeyError as e:
        if traceback.extract_tb(e.__traceback__)[-1].name == "face_keys":
            n, key = e.args[0]
            raise FileFormatError(f"dimension {n}: cell {render_id(key)!r} has no face entry") from None
        raise FileFormatError(f"dimension 1: cell {render_id(e.args[0])!r} has no label") from None


def _hda(cells, faces, labels, initial=()):
    from hda_lab.hda import Alphabet
    from hda_lab.hda import Hda
    from hda_lab.precubical import PrecubicalSet

    return Hda(PrecubicalSet(cells, faces), Alphabet(["a"]), labels, frozenset(initial))


WRITER_CASES = {
    "dangling-face": _hda({0: ["u", "v"], 1: ["e"]}, {(1, "e"): (["u"], ["nowhere"])}, {"e": ("a",)}),
    "dangling-tuple-face": _hda(
        {0: [(0, 1)], 1: [2]}, {(1, 2): ([(0, 1)], [(0, (1, "x"))])}, {2: ("a",)}
    ),
    "unrenderable-dangling-face": _hda({0: ["u"], 1: ["e"]}, {(1, "e"): (["u"], [1.5])}, {"e": ()}),
    "unhashable-dangling-face": _hda({0: ["u"], 1: ["e"]}, {(1, "e"): (["u"], [["u"]])}, {"e": ()}),
    "collision": _hda({0: [1, "1"]}, {}, {}),
    "collision-above": _hda(
        {0: ["u"], 1: [(1, 2), "(1,2)"]},
        {(1, (1, 2)): (["u"], ["u"]), (1, "(1,2)"): (["u"], ["u"])},
        {(1, 2): (), "(1,2)": ()},
    ),
    "collision-after-unrenderable": _hda({0: ["1", 1, 2.5]}, {}, {}),
    "unrenderable-before-collision": _hda({0: [2.5, "1", 1]}, {}, {}),
    "unrenderable-face-below-collision": _hda(
        {0: ["u"], 1: ["e"], 2: [1, "1"]},
        {(1, "e"): (["u"], [None]), (2, 1): (["e"] * 2, ["e"] * 2), (2, "1"): (["e"] * 2, ["e"] * 2)},
        {"e": ("a",)},
    ),
    "bool-key": _hda({0: [True]}, {}, {}),
    "missing-face-entry": _hda({0: ["u"], 1: ["e"]}, {}, {"e": ("a",)}),
    "unlabeled-edge": _hda({0: ["u"], 1: ["e"]}, {(1, "e"): (["u"], ["u"])}, {}),
    "unknown-mark": _hda({0: ["u"]}, {}, {}, [(0, "nowhere"), (3, ("p", 4))]),
    "int-letter": _hda(
        {0: ["u"], 1: ["e", "f"]}, {(1, "e"): (["u"], ["u"]), (1, "f"): (["u"], ["u"])},
        {"e": ("a",), "f": (3,)},
    ),
    "none-letter-dangling-face": _hda(
        {0: ["u"], 1: ["e", "f"]}, {(1, "e"): (["u"], ["nowhere"]), (1, "f"): (["u"], ["u"])},
        {"e": ("a",), "f": (None, "x")},
    ),
}


def _faces_as_ids(h) -> dict:
    """What the writer makes of h, as records with its faces read back as ids."""
    return id_form(hda_to_json(h))


@pytest.mark.parametrize("name", sorted(WRITER_CASES))
def test_hda_writer_matches_the_reference_on_damaged_automata(name):
    h = WRITER_CASES[name]
    assert _written(_faces_as_ids, h) == _written(reference_hda_to_json_naming_cells, h)


def test_hda_writer_matches_the_reference_on_the_damaged_model_stream():
    from test_precubical import damaged_models

    missing = by_dimension = bad_words = 0
    for h in damaged_models():
        want = _written(reference_hda_to_json_naming_cells, h)
        assert _written(_faces_as_ids, h) == want
        missing += str(want[1]).endswith(("has no face entry", "has no label"))
        bad_words += "has a word that is not letters" in str(want[1])
        if type(want[0]) is dict:
            # One entry per dimension exactly when every face resolves;
            # records by id keep a face that does not.
            P = h.complex
            resolved = all(None not in P.face_positions(n) for n in P.dims())
            doc = hda_to_json(h)
            assert ("dims" in doc) == resolved != ("cubes" in doc)
            refs = [ref for e in doc.get("cubes", ()) for ref in e["d0"] + e["d1"]]
            assert {type(ref) for ref in refs} == (set() if resolved else {str})
            by_dimension += resolved
    # Seven of the eight bad words were written at the parent, and one came
    # before an unlabeled edge in basis order.
    assert missing == 34 and bad_words == 8
    assert 10 < by_dimension < 85, by_dimension
    for build in (lock_spec, lambda: tensor_hda(directed_torus([("a",)], [("b",)]), lock_spec())):
        h = build()
        assert _written(_faces_as_ids, h) == _written(reference_hda_to_json, h)


def test_saving_a_cell_without_a_face_entry_or_label_names_the_cell(tmp_path):
    h = _hda({0: ["u"], 1: ["e"], 2: [("s", 1)]}, {(1, "e"): (["u"], ["u"])}, {"e": ("a",)})
    with pytest.raises(FileFormatError, match=r"^dimension 2: cell '\(s,1\)' has no face entry$"):
        save_hda(h, str(tmp_path / "h.json"))
    assert not (tmp_path / "h.json").exists()
    h = _hda({0: ["u"], 1: ["e"]}, {(1, "e"): (["u"], ["u"])}, {})
    with pytest.raises(FileFormatError, match=r"^dimension 1: cell 'e' has no label$"):
        save_hda(h, str(tmp_path / "h.json"))
    h = _hda({0: ["u"], 1: ["e"]}, {(1, "e"): (["u"], ["u"])}, {"e": 3})
    with pytest.raises(FileFormatError, match=r"^dimension 1: cell 'e' has a word that is not letters: 3$"):
        save_hda(h, str(tmp_path / "h.json"))


def test_every_damaged_model_the_writer_accepts_loads(tmp_path):
    # A word with a letter that is not a string is refused when written, in
    # both forms, not when read back.
    from test_precubical import damaged_models

    path = tmp_path / "h.json"
    loaded = refused = 0
    for h in damaged_models():
        try:
            save_hda(h, str(path))
        except FileFormatError as e:
            refused += "has a word that is not letters" in str(e)
            continue
        assert isinstance(load_hda(str(path)), type(h))
        loaded += 1
    assert (loaded, refused) == (78, 8)


def test_grid_coord_round_trip():
    for coord in ((), (0,), (3, (1, 2)), ((0, 1), (5, 6), 4)):
        assert parse_grid_coord(render_grid_coord(coord)) == coord
    assert render_grid_coord((0, (1, 2), 3)) == "(0,[1,2],3)"
    for bad in ("0,1", "(0,,1)", "(0 1)", "(x)", "([1,2,3])", ""):
        with pytest.raises(FileFormatError):
            parse_grid_coord(bad)


def test_dimap_round_trip():
    for make in (subdivision_dimap, transposition_dimap):
        f = make()
        doc = dimap_to_json(f, "src.json", "tgt.json")
        g = dimap_from_json(doc, f.source, f.target)
        assert validate_dimap(g) == []
        assert g.vertex_map == f.vertex_map
        assert set(g.cube_maps) == set(f.cube_maps)
        for cube, cm in f.cube_maps.items():
            gm = g.cube_maps[cube]
            assert (gm.shape, gm.axis_perm, gm.flat) == (
                cm.shape,
                cm.axis_perm,
                cm.flat,
            )
        assert canonical_json(dimap_to_json(g, "src.json", "tgt.json")) == (
            canonical_json(doc)
        )
        top = f.source.complex.max_dim
        for key in f.source.complex.cells(top):
            assert pushforward_cube(g, (top, key)) == pushforward_cube(
                f, (top, key)
            )


def test_dimap_file_refs_resolve_relative(tmp_path):
    f = transposition_dimap()
    save_hda(f.source, str(tmp_path / "src.json"))
    save_hda(f.target, str(tmp_path / "tgt.json"))
    doc = dimap_to_json(f, "src.json", "tgt.json")
    (tmp_path / "map.json").write_text(canonical_json(doc))
    g = load_dimap(str(tmp_path / "map.json"))
    assert validate_dimap(g) == []
    assert dimap_to_json(g, "src.json", "tgt.json") == doc


def test_dimap_parse_errors():
    f = transposition_dimap()
    doc = dimap_to_json(f, "s", "t")

    bad = json.loads(canonical_json(doc))
    bad["f0"]["00"] = "nowhere"
    with pytest.raises(FileFormatError, match="no cube"):
        dimap_from_json(bad, f.source, f.target)

    bad = json.loads(canonical_json(doc))
    entry = next(e for e in bad["cubes"] if len(e["shape"]) == 2)
    entry["flat"]["([0,1],[0,1])"] = "00"
    with pytest.raises(FileFormatError, match="dimension 2"):
        dimap_from_json(bad, f.source, f.target)

    bad = json.loads(canonical_json(doc))
    entry = next(e for e in bad["cubes"] if len(e["shape"]) == 2)
    entry["flat"]["(0,"] = entry["flat"].pop("(0,0)")
    with pytest.raises(FileFormatError, match="grid coordinate"):
        dimap_from_json(bad, f.source, f.target)


def test_program_round_trip(tmp_path):
    for prog in (peterson(), lock_counter(), dining_philosophers(3)):
        assert program_from_json(program_to_json(prog)) == prog
        save_program(prog, str(tmp_path / "prog.json"))
        assert load_program(str(tmp_path / "prog.json")) == prog


def test_program_single_initial_value():
    doc = program_to_json(lock_counter())
    var = doc["variables"][0]
    assert isinstance(var["initial"], list)
    var["initial"] = var["initial"][0]
    prog = program_from_json(doc)
    assert prog.variables[0].initial == lock_counter().variables[0].initial


def test_program_parse_errors():
    doc = program_to_json(peterson())

    bad = json.loads(canonical_json(doc))
    bad["processes"][0]["transitions"][0]["guard"] = ["xor", []]
    with pytest.raises(FileFormatError, match="unknown guard tag"):
        program_from_json(bad)

    bad = json.loads(canonical_json(doc))
    bad["processes"][0]["transitions"][0]["effects"] = [["set", "t"]]
    with pytest.raises(FileFormatError, match="bad effect"):
        program_from_json(bad)

    bad = json.loads(canonical_json(doc))
    del bad["variables"][0]["domain"]
    with pytest.raises(FileFormatError, match="domain"):
        program_from_json(bad)

    bad = json.loads(canonical_json(doc))
    bad["processes"][0]["transitions"][0]["guard"] = ["cmp", "=="]
    with pytest.raises(FileFormatError, match="cmp guard"):
        program_from_json(bad)


def test_chain_from_json():
    h = program_to_hda(lock_counter())
    e0, e1 = h.complex.cells(1)[:2]
    doc = {"degree": 1, "coeffs": {render_id(e0): 2, render_id(e1): 0}}
    degree, chain = chain_from_json(doc, h)
    assert degree == 1
    assert chain == {(1, e0): 2}

    with pytest.raises(FileFormatError, match="no cube"):
        chain_from_json({"degree": 2, "coeffs": {render_id(e0): 1}}, h)
    with pytest.raises(FileFormatError, match="integer"):
        chain_from_json({"degree": 1, "coeffs": {render_id(e0): 1.5}}, h)
    with pytest.raises(FileFormatError, match="degree"):
        chain_from_json({"degree": -1, "coeffs": {}}, h)


def test_load_reports_position_of_broken_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"alphabet": [}\n')
    with pytest.raises(FileFormatError, match="line 1"):
        load_hda(str(path))
    with pytest.raises(FileFormatError):
        load_hda(str(tmp_path / "missing.json"))
    (tmp_path / "notdict.json").write_text("[1, 2]\n")
    with pytest.raises(FileFormatError, match="JSON object"):
        load_hda(str(tmp_path / "notdict.json"))


def test_save_and_load_hda_files(tmp_path):
    h = program_to_hda(peterson())
    path = tmp_path / "model.json"
    save_hda(h, str(path))
    h2 = load_hda(str(path))
    assert validate_hda(h2) == []
    assert homology_profile(h2.complex) == homology_profile(h.complex)
    save_hda(h2, str(tmp_path / "again.json"))
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_a_loaded_dims_file_holds_one_tuple_per_distinct_word(tmp_path):
    # Edges with the same word share one tuple, and the model writes back
    # to the same bytes.
    for name, h in (
        ("phil3", program_to_hda(dining_philosophers(3))),
        ("torus", directed_torus([("a1", "a2"), ("b",), ("a1", "a2")], [("b",), ("c",)])),
    ):
        path = tmp_path / f"{name}.json"
        save_hda(h, str(path))
        loaded = load_hda(str(path))
        words = loaded.labels.values()
        assert len(words) == len(h.labels) > len(set(words))
        assert len({id(w) for w in words}) == len(set(words))
        assert canonical_json(hda_to_json(loaded)) == path.read_text()


def test_a_dims_file_in_the_previous_indented_layout_loads_to_the_same_model(tmp_path):
    # The writer before the one-line layout indented HDA files as it does
    # every other document; only whitespace differs, so they load alike.
    path, indented, again = tmp_path / "model.json", tmp_path / "indented.json", tmp_path / "again.json"
    read = 0
    for h in _model_zoo():
        try:
            save_hda(h, str(path))
        except FileFormatError:  # a cell without faces, or an edge without a word of letters
            continue
        doc = json.loads(path.read_text())
        if "dims" not in doc:
            continue
        indented.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        assert indented.read_text().count("\n") > path.read_text().count("\n") == 1
        assert _summary(load_hda(str(indented))) == _summary(load_hda(str(path)))
        # Written again, it takes the one-line layout.
        save_hda(load_hda(str(indented)), str(again))
        assert again.read_bytes() == path.read_bytes()
        read += 1
    assert read > 60, read


# -- packed face positions ---------------------------------------------------------

# The faces of each fixture file as the writer before the packed form wrote
# them, one integer list per dimension.
FIXTURE_POSITIONS = {
    "peterson": [
        [],
        [0, 11, 0, 2, 1, 13, 1, 0, 2, 14, 3, 6, 3, 15, 4, 8, 4, 16, 5, 8, 5, 16, 6, 4, 6, 17,
         7, 5, 7, 17, 8, 19, 9, 3, 9, 12, 10, 4, 10, 14, 11, 5, 11, 14, 12, 6, 12, 10, 13, 7,
         13, 11, 14, 8, 14, 9, 15, 17, 16, 18, 17, 16, 17, 1, 18, 2, 19, 15],
        [1, 0, 21, 4, 3, 2, 25, 0, 5, 6, 28, 12, 11, 12, 30, 8, 13, 14, 30, 10, 17, 16, 5, 22,
         19, 18, 7, 26, 21, 20, 9, 26, 23, 22, 11, 18, 25, 24, 13, 20],
    ],
    "lock-counter": [
        [],
        [0, 2, 0, 1, 1, 0, 1, 3, 2, 0, 2, 3, 3, 1, 3, 2],
        [1, 0, 5, 3, 2, 3, 7, 0, 5, 4, 1, 6, 7, 6, 2, 4],
    ],
    "lock-spec": [[], [0, 1, 0, 2, 1, 0, 2, 0]],
    "torus": [[], [0, 0, 1, 1, 0, 1, 0, 1], [0, 2, 1, 2, 0, 3, 1, 3]],
    "klein": [[], [1, 1, 0, 1, 0, 1, 0, 0], [3, 1, 0, 2, 3, 2, 0, 1]],
    "boundary-square": [[], [0, 2, 0, 1, 2, 3, 1, 3]],
    "filled-square": [[], [0, 2, 0, 1, 2, 3, 1, 3], [1, 0, 2, 3]],
}


@pytest.mark.parametrize("name", sorted(FIXTURE_POSITIONS))
def test_fixture_files_hold_the_positions_of_the_integer_lists(name, tmp_path):
    from hda_lab.cli import main

    path = tmp_path / f"{name}.json"
    assert main(["model", name, "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert [unpack_faces(entry["faces"]) for entry in doc["dims"]] == FIXTURE_POSITIONS[name]
    assert [entry["faces"] for entry in doc["dims"]] == [
        pack_faces(flat) for flat in FIXTURE_POSITIONS[name]
    ]


def test_the_lock_spec_faces_text_is_pinned():
    # Little-endian 32-bit positions, whatever the byte order of the host.
    doc = hda_to_json(lock_spec())
    assert [entry["faces"] for entry in doc["dims"]] == [
        "",
        "AAAAAAEAAAAAAAAAAgAAAAEAAAAAAAAAAgAAAAAAAAA=",
    ]


def test_a_position_past_32_bits_is_refused_naming_the_dimension():
    from hda_lab.fileformats import _pack_positions

    assert _pack_positions([2**32 - 1], 3) == pack_faces([2**32 - 1])
    with pytest.raises(FileFormatError, match=r"^dimension 3: a face position is past 4294967295$"):
        _pack_positions([0, 2**32], 3)


def _hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    return hypothesis, hypothesis.strategies


def test_packed_positions_round_trip():
    from hda_lab.fileformats import _unpack_positions, _pack_positions

    hypothesis, st = _hypothesis()

    @hypothesis.settings(database=None, derandomize=True, max_examples=200, deadline=None)
    @hypothesis.given(st.lists(st.integers(0, 2**32 - 1), max_size=64))
    def check(flat):
        text = _pack_positions(flat, 1)
        assert text == pack_faces(flat)
        assert list(_unpack_positions(text, "hda.dims[1]")) == flat

    check()


def test_written_positions_come_back_identical_on_load():
    from conftest import random_circle, random_torus

    hypothesis, st = _hypothesis()

    @hypothesis.settings(database=None, derandomize=True, max_examples=60, deadline=None)
    @hypothesis.given(st.integers(0, 2**64), st.sampled_from([random_circle, random_torus]))
    def check(seed, build):
        h = build(random.Random(seed))
        doc = hda_to_json(h)
        again = hda_from_json(json.loads(canonical_json(doc)))
        Q = again.complex
        for n, entry in enumerate(doc["dims"]):
            stored = [pos for flat in Q.face_positions(n) for pos in flat]
            assert unpack_faces(entry["faces"]) == stored
            for key in h.complex.cells(n):
                d0, d1 = h.complex.face_keys((n, key))
                assert Q.face_keys((n, render_id(key))) == (
                    tuple(map(render_id, d0)), tuple(map(render_id, d1))
                )
        assert canonical_json(hda_to_json(again)) == canonical_json(doc)

    check()
