import itertools
import random

import pytest

from hda_lab.exterior import ExteriorElement, word_to_vector
from hda_lab.hda import Alphabet
from hda_lab.rings import GF2, ZZ, CoefficientRing

AB = Alphabet(["a", "b", "c", "d"])


def elt(terms, ring=ZZ):
    return ExteriorElement(AB, ring, terms)


def letter(a, ring=ZZ):
    return word_to_vector(AB, (a,), ring)


def test_alphabet():
    assert len(AB) == 4
    assert AB.index("c") == 2
    assert "a" in AB and "z" not in AB
    with pytest.raises(KeyError):
        AB.index("z")
    with pytest.raises(ValueError):
        Alphabet(["a", "a"])
    with pytest.raises(ValueError):
        Alphabet(["a", ""])
    u = AB.union(Alphabet(["c", "e", "a"]))
    assert u.letters == ("a", "b", "c", "d", "e")


def test_constructor_normalizes():
    assert elt({(0,): 0}).is_zero()
    assert elt({(0,): 3}, GF2) == elt({(0,): 1}, GF2)
    with pytest.raises(ValueError):
        elt({(1, 0): 1})
    with pytest.raises(ValueError):
        elt({(0, 0): 1})
    with pytest.raises(ValueError):
        elt({(9,): 1})


def test_add_sub_scale():
    x = letter("a") + letter("b")
    assert x.terms == {(0,): 1, (1,): 1}
    y = x - letter("b")
    assert y == letter("a")
    assert (x - x).is_zero()
    assert 3 * letter("a") == elt({(0,): 3})
    assert (-x).terms == {(0,): -1, (1,): -1}


def test_wedge_basics():
    a, b, c = letter("a"), letter("b"), letter("c")
    assert (a ^ b).terms == {(0, 1): 1}
    assert (b ^ a).terms == {(0, 1): -1}
    assert (a ^ a).is_zero()
    assert ((a + b) ^ (a + b)).is_zero()
    assert (a ^ b ^ c).terms == {(0, 1, 2): 1}
    assert (c ^ a ^ b).terms == {(0, 1, 2): 1}
    assert (c ^ b ^ a).terms == {(0, 1, 2): -1}


def test_wedge_alternates_over_gf2():
    # The alternating rule a^a = 0 is imposed, not derived from signs, so it
    # must hold in characteristic 2 as well.
    a = letter("a", GF2)
    b = letter("b", GF2)
    assert (a ^ a).is_zero()
    assert ((a + b) ^ (a + b)).is_zero()
    assert (a ^ b) == (b ^ a)


def test_unit_and_degree():
    one = ExteriorElement.unit(AB)
    a = letter("a")
    assert (one ^ a) == a
    assert (a ^ one) == a
    mixed = one + a + (a ^ letter("b"))
    assert mixed.terms == {(): 1, (0,): 1, (0, 1): 1}


def test_associativity_random():
    rng = random.Random(4004)
    basis = [(), (0,), (1,), (2,), (3,), (0, 1), (1, 3), (0, 2, 3)]
    for _ in range(300):
        xs = []
        for _ in range(3):
            terms = {idx: rng.randint(-3, 3) for idx in rng.sample(basis, 3)}
            xs.append(elt(terms))
        x, y, z = xs
        assert (x ^ (y ^ z)) == ((x ^ y) ^ z)
        assert (x ^ (y + z)) == (x ^ y) + (x ^ z)


def test_graded_commutativity_random():
    rng = random.Random(77)
    idx_by_deg = {
        1: [(0,), (1,), (2,), (3,)],
        2: [(0, 1), (0, 2), (1, 3), (2, 3)],
    }
    for _ in range(300):
        p = rng.choice([1, 2])
        q = rng.choice([1, 2])
        x = elt({idx: rng.randint(-4, 4) for idx in rng.sample(idx_by_deg[p], 2)})
        y = elt({idx: rng.randint(-4, 4) for idx in rng.sample(idx_by_deg[q], 2)})
        sign = -1 if (p * q) % 2 else 1
        assert (x ^ y) == sign * (y ^ x)


def test_word_to_vector():
    assert word_to_vector(AB, ()).is_zero()
    v = word_to_vector(AB, ("a", "b", "a"))
    assert v.terms == {(0,): 2, (1,): 1}
    assert word_to_vector(AB, ("a", "b", "a"), GF2).terms == {(1,): 1}
    # Concatenation adds letter sums.
    w1, w2 = ("a", "c"), ("c", "d", "a")
    assert word_to_vector(AB, w1 + w2) == word_to_vector(AB, w1) + word_to_vector(AB, w2)


def test_retag():
    small = Alphabet(["b", "d"])
    x = word_to_vector(small, ("b",)) ^ word_to_vector(small, ("d",))
    y = x.retag(AB)
    assert y.terms == {(1, 3): 1}
    assert str(y) == "b∧d"


def test_retag_reordered_alphabet_flips_sign():
    ba = Alphabet(["b", "a"])
    x = word_to_vector(ba, ("b",)) ^ word_to_vector(ba, ("a",))
    ab = Alphabet(["a", "b"])
    assert str(x.retag(ab)) == "-a∧b"
    # Round trip restores the element exactly.
    assert x.retag(ab).retag(ba) == x
    cba = Alphabet(["c", "b", "a"])
    w = (
        word_to_vector(cba, ("c",))
        ^ word_to_vector(cba, ("b",))
        ^ word_to_vector(cba, ("a",))
    )
    abc = Alphabet(["a", "b", "c"])
    # Reversing three letters is an odd permutation.
    assert str(w.retag(abc)) == "-a∧b∧c"


def test_rendering():
    assert str(elt({})) == "0"
    assert str(letter("a")) == "a"
    x = 2 * letter("a") + (letter("a") ^ letter("b"))
    assert str(x) == "2·a + a∧b"
    y = letter("b") - letter("a")
    assert str(y) == "-a + b"
    one = ExteriorElement.unit(AB)
    assert str(one) == "1"
    assert str(one.scale(-2) + letter("c")) == "-2 + c"


def test_mixed_alphabet_or_ring_rejected():
    other = Alphabet(["a", "b"])
    with pytest.raises(ValueError):
        letter("a") + word_to_vector(other, ("a",))
    with pytest.raises(ValueError):
        letter("a") ^ letter("a", GF2)


def test_exhaustive_small_alternation():
    # Every degree-1 element over GF(2) on 3 letters squares to zero.
    A3 = Alphabet(["x", "y", "z"])
    for bits in itertools.product([0, 1], repeat=3):
        v = ExteriorElement(A3, GF2, {(i,): b for i, b in enumerate(bits)})
        assert (v ^ v).is_zero()
