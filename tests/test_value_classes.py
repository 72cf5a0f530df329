"""The package's record classes: construction, defaults, equality, immutability.

They are plain classes with explicit constructors, so these tests pin what
callers rely on: positional and keyword construction, defaults (fresh lists
per instance), equality and hashing where they are used, refused assignment
on the immutable ones, and the checks their constructors run.
"""

import pytest

from hda_lab.constructions import Path, PcMorphism, interval
from hda_lab.dimap import CubeMap, ElementaryDimap
from hda_lab.exterior import ExteriorElement
from hda_lab.hda import Alphabet, Hda
from hda_lab.homology import HomologyGroup, SmithNormalForm
from hda_lab.labeling import DegreeLabelReport, LabeledClass
from hda_lab.precubical import Violation
from hda_lab.rings import GF2, ZZ, CoefficientRing

AB = Alphabet(["a", "b"])
P = interval(0, 2)
A = ExteriorElement(AB, ZZ, {(0,): 1})
GROUP = HomologyGroup(1, ZZ, 1, [], [{(1, (0, 1)): 1}], [])
HDA = Hda(P, AB, {(0, 1): ("a",), (1, 2): ("b",)})
CUBE_MAP = CubeMap((1,), (1,), {(0,): (0, 0)})

# class -> (every field in order with a value, the defaults of the trailing ones)
CLASSES = {
    CoefficientRing: ({"characteristic": 3}, {"characteristic": 0}),
    ExteriorElement: ({"alphabet": AB, "ring": GF2, "terms": {(0, 1): 1}}, {"ring": ZZ, "terms": {}}),
    Violation: ({"kind": "k", "cube": (0, 0), "message": "m", "data": (1, 2)}, {"data": ()}),
    Path: ({"complex": P, "edges": ((1, (0, 1)),), "start": (0, 0)}, {}),
    PcMorphism: ({"source": P, "target": P, "mapping": {}}, {}),
    Hda: (
        {
            "complex": P,
            "alphabet": AB,
            "labels": {},
            "initial": frozenset({(0, 0)}),
            "final": frozenset({(0, 2)}),
        },
        {"initial": frozenset(), "final": frozenset()},
    ),
    SmithNormalForm: (
        {
            "rows": 1,
            "cols": 1,
            "diagonal": [2],
            "m_rows": [{0: 2}],
            "u_rows": [{0: 1}],
            "u_inv_cols": [{0: 1}],
            "v_cols": [{0: 1}],
            "v_inv_rows": [{0: 1}],
        },
        {},
    ),
    HomologyGroup: (
        {
            "degree": 1,
            "ring": ZZ,
            "free_rank": 1,
            "torsion": [2],
            "free_generators": [{(1, (0, 1)): 1}],
            "torsion_generators": [{(1, (1, 2)): 1}],
        },
        {"torsion": [], "free_generators": [], "torsion_generators": []},
    ),
    LabeledClass: ({"chain": {(1, (0, 1)): 1}, "label": A, "order": 2}, {"order": 0}),
    DegreeLabelReport: (
        {
            "degree": 1,
            "ring": ZZ,
            "group": GROUP,
            "classes": [],
            "label_image_basis": [A],
            "zero_label_classes": [],
        },
        {},
    ),
    CubeMap: ({"shape": (1,), "axis_perm": (1,), "flat": {(0,): (0, 0)}}, {}),
    ElementaryDimap: (
        {"source": HDA, "target": HDA, "vertex_map": {}, "cube_maps": {(1, (0, 1)): CUBE_MAP}},
        {},
    ),
}

FROZEN = (CoefficientRing, ExteriorElement, Violation, Path)


def _fields(obj, names):
    return {name: getattr(obj, name) for name in names}


@pytest.mark.parametrize("cls", list(CLASSES), ids=lambda c: c.__name__)
def test_positional_keyword_and_default_construction(cls):
    values, defaults = CLASSES[cls]
    by_position = cls(*values.values())
    by_keyword = cls(**values)
    assert _fields(by_position, values) == values
    assert _fields(by_keyword, values) == values
    given = {k: v for k, v in values.items() if k not in defaults}
    assert _fields(cls(**given), defaults) == defaults
    with pytest.raises(TypeError):
        cls(*values.values(), None)


def test_default_lists_are_fresh_per_instance():
    g, h = HomologyGroup(0, ZZ, 0), HomologyGroup(0, ZZ, 0)
    for name in ("torsion", "free_generators", "torsion_generators"):
        assert getattr(g, name) is not getattr(h, name)
    g.torsion.append(2)
    assert h.torsion == []


def test_rings_compare_and_hash_by_characteristic():
    assert CoefficientRing(3) == CoefficientRing(3)
    assert hash(CoefficientRing(3)) == hash(CoefficientRing(3))
    assert CoefficientRing(2) == GF2 and CoefficientRing() == ZZ
    assert ZZ != GF2 and ZZ != 0 and ZZ.__eq__(0) is NotImplemented
    memo = {CoefficientRing(5): "F5"}
    assert memo[CoefficientRing(5)] == "F5"


def test_exterior_elements_compare_and_hash_by_value():
    x = ExteriorElement(AB, ZZ, {(0,): 1, (1,): 0})
    assert x == A and hash(x) == hash(A)
    assert x != ExteriorElement(AB, GF2, {(0,): 1})
    assert x != ExteriorElement(Alphabet(["a", "c"]), ZZ, {(0,): 1})
    assert len({x, A, A + A}) == 2


def test_violations_compare_and_hash_by_their_four_fields():
    v = Violation("k", (0, 0), "m")
    assert v == Violation("k", (0, 0), "m", ())
    assert hash(v) == hash(Violation("k", (0, 0), "m", ()))
    assert v != Violation("k", (0, 0), "m", (1,))
    assert v != Violation("k", None, "m")
    assert len({v, Violation("k", (0, 0), "m"), Violation("j", (0, 0), "m")}) == 2
    assert str(v) == "[k] at (0, 0): m"


def test_equality_of_the_other_compared_classes():
    assert CUBE_MAP == CubeMap((1,), (1,), {(0,): (0, 0)})
    assert CUBE_MAP != CubeMap((1,), (1,), {(0,): (0, 1)})
    with pytest.raises(TypeError):
        hash(CUBE_MAP)
    assert GROUP == HomologyGroup(1, ZZ, 1, [], [{(1, (0, 1)): 1}])
    assert GROUP != HomologyGroup(1, GF2, 1, [], [{(1, (0, 1)): 1}])
    path = Path(P, ((1, (0, 1)), (1, (1, 2))), (0, 0))
    assert path == Path(P, ((1, (0, 1)), (1, (1, 2))), (0, 0))
    assert path != Path(interval(0, 2), ((1, (0, 1)), (1, (1, 2))), (0, 0))
    assert hash(path) == hash(Path(P, path.edges, path.start))


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_frozen_classes_refuse_assignment(cls):
    values, _ = CLASSES[cls]
    obj = cls(**values)
    for name in values:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert _fields(obj, values) == values


def test_constructors_run_their_checks():
    with pytest.raises(ValueError, match="prime"):
        CoefficientRing(4)
    with pytest.raises(ValueError, match="breaks"):
        Path(P, ((1, (1, 2)),), (0, 0))
    with pytest.raises(ValueError, match="not a vertex"):
        Path(P, (), (1, (0, 1)))
    with pytest.raises(ValueError, match="out of alphabet range"):
        ExteriorElement(AB, ZZ, {(2,): 1})
    with pytest.raises(ValueError, match="not strictly increasing"):
        ExteriorElement(AB, ZZ, {(1, 0): 1})
    # Coefficients are normalized and zeros dropped.
    assert ExteriorElement(AB, CoefficientRing(3), {(0,): 4, (1,): 3}).terms == {(0,): 1}
    # The terms are copied, so the caller's mapping stays the caller's.
    terms = {(0,): 1}
    x = ExteriorElement(AB, ZZ, terms)
    terms[(1,)] = 1
    assert x.terms == {(0,): 1}
