import math
import random

import pytest

from hda_lab.rings import GF2, ZZ, CoefficientRing, parse_ring, xgcd


def test_xgcd_small():
    x, y, g = xgcd(12, 18)
    assert g == 6 and x * 12 + y * 18 == 6
    assert xgcd(0, 0) == (1, 0, 0)
    x, y, g = xgcd(0, -7)
    assert g == 7 and y * -7 == 7


def test_xgcd_sweep():
    rng = random.Random(90125)
    for _ in range(2000):
        a = rng.randint(-10**6, 10**6)
        b = rng.randint(-10**6, 10**6)
        x, y, g = xgcd(a, b)
        assert g == math.gcd(a, b)
        assert x * a + y * b == g


def test_ring_basics():
    assert not ZZ.is_field
    assert GF2.is_field
    assert ZZ.normalize(-5) == -5
    assert GF2.normalize(-5) == 1
    assert str(ZZ) == "Z" and str(GF2) == "Z/2"


def test_characteristic_must_be_prime():
    with pytest.raises(ValueError):
        CoefficientRing(4)
    with pytest.raises(ValueError):
        CoefficientRing(1)
    CoefficientRing(97)
    CoefficientRing(2**31 - 1)
    # prime, but past the bound that keeps trial division short
    with pytest.raises(ValueError, match="below 2"):
        CoefficientRing(2**61 - 1)


def test_parse_and_spec_roundtrip():
    assert parse_ring("z") is ZZ
    assert parse_ring("zp:2") == GF2
    assert parse_ring("ZP:13") == CoefficientRing(13)
    for spec, ring in (("z", ZZ), ("zp:2", GF2), ("zp:7", CoefficientRing(7))):
        assert parse_ring(spec) == ring
    with pytest.raises(ValueError):
        parse_ring("q")
    with pytest.raises(ValueError):
        parse_ring("zp:six")
    with pytest.raises(ValueError):
        parse_ring("zp:9")
    with pytest.raises(ValueError, match="use 'z'"):
        parse_ring("zp:0")


def dense_sum(terms, ring):
    """sum c * v entry by entry over the union of keys, normalized, zeros dropped."""
    keys = {k for vec, _ in terms for k in vec}
    total = {k: ring.normalize(sum(c * vec.get(k, 0) for vec, c in terms)) for k in keys}
    return {k: x for k, x in total.items() if x}


@pytest.mark.parametrize("p", [0, 2, 3, 5])
def test_combine_matches_a_dense_sum(p):
    ring = CoefficientRing(p)
    rng = random.Random(2718 + p)
    for _ in range(400):
        terms = [
            ({rng.randrange(8): rng.randint(-4, 4) for _ in range(rng.randint(0, 5))},
             rng.choice([0, rng.randint(-6, 6)]))
            for _ in range(rng.randint(0, 6))
        ]
        got = ring.combine(iter(terms))
        assert got == dense_sum(terms, ring)
        assert all(x and ring.normalize(x) == x for x in got.values())
        # Keys in the order they first appear in a term with a nonzero coefficient.
        first = [k for vec, c in terms if c for k in vec]
        assert list(got) == sorted(got, key=first.index)


@pytest.mark.parametrize("ring", [ZZ, GF2, CoefficientRing(3), CoefficientRing(5)])
def test_combine_edge_cases(ring):
    assert ring.combine([]) == {}
    assert ring.combine([({"a": 1}, 0), ({}, 3)]) == {}
    # Keys repeated across terms, and full cancellation.
    assert ring.combine([({"a": 1, "b": 2}, 1), ({"b": 1, "a": 1}, -1)]) == {"b": 1}
    assert ring.combine([({"a": 1, "b": -1}, 2), ({"b": 1, "a": -1}, 2)]) == {}
    # Entries are normalized: a multiple of the characteristic vanishes.
    assert ring.combine([({"a": 1}, ring.characteristic)]) == {}
    assert ring.combine([({"a": -1}, 1)]) == {"a": ring.normalize(-1)}
    # A key that cancels and comes back keeps its first place.
    terms = [({"x": 1}, 1), ({"y": 1}, 1), ({"x": 1}, -1), ({"x": 1}, 1)]
    assert list(ring.combine(terms)) == ["x", "y"]
