import math
import random

import pytest

from hda_lab.rings import GF2, ZZ, CoefficientRing, parse_ring, ring_spec, xgcd


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
    assert ZZ.neg(3) == -3
    assert GF2.neg(1) == 1
    assert ZZ.divides(0) and not ZZ.divides(4)
    assert GF2.divides(4) and not GF2.divides(3)
    assert str(ZZ) == "Z" and str(GF2) == "Z/2"


def test_inverse():
    F5 = CoefficientRing(5)
    for c in range(1, 5):
        assert F5.normalize(c * F5.inverse(c)) == 1
    assert ZZ.inverse(-1) == -1
    with pytest.raises(ZeroDivisionError):
        ZZ.inverse(2)
    with pytest.raises(ZeroDivisionError):
        F5.inverse(0)


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
    for ring in (ZZ, GF2, CoefficientRing(7)):
        assert parse_ring(ring_spec(ring)) == ring
    with pytest.raises(ValueError):
        parse_ring("q")
    with pytest.raises(ValueError):
        parse_ring("zp:six")
    with pytest.raises(ValueError):
        parse_ring("zp:9")
    with pytest.raises(ValueError, match="use 'z'"):
        parse_ring("zp:0")
