import pytest

from hda_lab.constructions import Path
from hda_lab.hda import (
    Alphabet,
    Hda,
    assert_valid_hda,
    corner_word_violations,
    validate_hda,
)
from hda_lab.models import filled_square, labeled_circle, labeled_interval
from hda_lab.precubical import PrecubicalSet


def test_edge_and_path_words():
    h = labeled_interval(["a", "b", "a"])
    assert h.edge_word((1, "x1")) == ("b",)
    with pytest.raises(ValueError):
        h.edge_word((0, "v0"))
    p = Path(h.complex, ((1, "x0"), (1, "x1"), (1, "x2")), (0, "v0"))
    assert h.path_word(p) == ("a", "b", "a")
    assert h.path_word(Path(h.complex, (), (0, "v1"))) == ()


def test_direction_words_on_square():
    h = filled_square("a", "b")
    assert h.direction_word((2, "s"), 1) == ("a",)
    assert h.direction_word((2, "s"), 2) == ("b",)
    assert h.direction_word((1, "left"), 1) == ("b",)


def test_validate_clean_models():
    for h in (labeled_circle(["a"]), labeled_interval(["a", "b"]), filled_square()):
        assert validate_hda(h) == []
        assert corner_word_violations(h) == []


def test_validate_unlabeled_and_orphan():
    h = labeled_interval(["a", "b"])
    del h.labels["x0"]
    h.labels["ghost"] = ("a",)
    kinds = sorted(v.kind for v in validate_hda(h))
    assert kinds == ["orphan-label", "unlabeled-edge"]


def test_validate_bad_word_and_unknown_letter():
    h = labeled_interval(["a", "b"])
    h.labels["x0"] = "a"  # a bare string is not a word tuple
    h.labels["x1"] = ("z",)
    kinds = sorted(v.kind for v in validate_hda(h))
    assert kinds == ["bad-word", "unknown-letter"]


def test_validate_square_condition():
    h = filled_square("a", "b")
    h.labels["top"] = ("b",)
    bad = validate_hda(h)
    assert [v.kind for v in bad] == ["square-condition"]
    assert bad[0].cube == (2, "s") and bad[0].data == (2,)
    corner = corner_word_violations(h)
    assert [v.kind for v in corner] == ["corner-word"]
    with pytest.raises(ValueError):
        assert_valid_hda(h)


def test_validate_markings():
    h = labeled_circle(["a", "b"])
    h.initial = frozenset({(0, "nope")})
    kinds = [v.kind for v in validate_hda(h)]
    assert kinds == ["initial-not-in-complex"]


def test_empty_words_allowed():
    P = PrecubicalSet({0: ["u", "v"], 1: ["e"]}, {(1, "e"): (["u"], ["v"])})
    h = Hda(P, Alphabet(["a"]), {"e": ()}, frozenset(), frozenset())
    assert validate_hda(h) == []
    assert h.edge_word((1, "e")) == ()


def test_multi_letter_words():
    P = PrecubicalSet({0: ["u", "v"], 1: ["e"]}, {(1, "e"): (["u"], ["v"])})
    h = Hda(P, Alphabet(["a", "b"]), {"e": ("a", "b", "a")})
    assert validate_hda(h) == []
    p = Path(P, ((1, "e"),), (0, "u"))
    assert h.path_word(p) == ("a", "b", "a")


def test_corner_words_on_cube_fixture():
    # A 3-cube made of grid cells keeps all corner reads consistent.
    from hda_lab.constructions import standard_cube

    G = standard_cube(3)
    letters = {1: "a", 2: "b", 3: "c"}
    labels = {}
    for key in G.cells(1):
        direction = next(i + 1 for i, comp in enumerate(key) if isinstance(comp, tuple))
        labels[key] = (letters[direction],)
    h = Hda(G, Alphabet(["a", "b", "c"]), labels)
    assert validate_hda(h) == []
    assert corner_word_violations(h) == []
    assert h.direction_word((3, ((0, 1),) * 3), 2) == ("b",)
