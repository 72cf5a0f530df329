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
