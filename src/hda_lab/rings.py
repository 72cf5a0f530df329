"""Coefficient rings for chains and labels: the integers or a prime field.

Everything downstream (chains, exterior labels, homology) is parametrized by a
``CoefficientRing``.  Only ``Z`` and ``Z/pZ`` for a prime ``p < 2**31`` are
supported; that is exactly what the homology engine can decompose (Smith
normal form over ``Z``, Gaussian elimination over a field), and the bound
keeps the primality check's trial division below 46,341.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, TypeVar

K = TypeVar("K", bound=Hashable)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (x, y, g) with x*a + y*b == g == gcd(a, b) >= 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class Record:
    """Equal to an instance of the same class with equal fields (``__dict__``).

    Any other class gets ``NotImplemented``.  Records are unhashable.
    """

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__


class Frozen(Record):
    """A hashable ``Record`` whose constructor writes fields via ``__dict__``.

    Assigning or deleting an attribute raises ``AttributeError``.  The hash
    is that of the field tuple, in the order the constructor wrote it.
    """

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))


class CoefficientRing(Frozen):
    """Z (characteristic 0) or the field Z/pZ (characteristic p, p prime).

    ``characteristic == 0`` means the integers.  Elements are plain Python
    ints; ``normalize`` maps them to the canonical representative (identity
    over Z, the residue in [0, p) over Z/pZ).  Immutable; rings with the
    same characteristic are equal and hash alike.
    """

    def __init__(self, characteristic: int = 0) -> None:
        p = characteristic
        if p != 0 and not (p < 2**31 and _is_prime(p)):
            raise ValueError(f"characteristic must be 0 or a prime below 2**31, got {p}")
        self.__dict__["characteristic"] = p

    @property
    def is_field(self) -> bool:
        return self.characteristic != 0

    def normalize(self, c: int) -> int:
        if self.characteristic:
            return c % self.characteristic
        return c

    def combine(self, terms: Iterable[tuple[Mapping[K, int], int]]) -> dict[K, int]:
        """The sum of c * v over the (sparse vector v, coefficient c) pairs.

        Entries are normalized and zeros dropped; keys keep the order in which
        they first appear in a term with a nonzero coefficient.
        """
        out: dict[K, int] = {}
        for vec, c in terms:
            if c:
                for k, x in vec.items():
                    out[k] = out.get(k, 0) + c * x
        return {k: x for k, x in ((k, self.normalize(x)) for k, x in out.items()) if x}

    def __str__(self) -> str:
        return "Z" if self.characteristic == 0 else f"Z/{self.characteristic}"


ZZ = CoefficientRing(0)
GF2 = CoefficientRing(2)


def parse_ring(spec: str) -> CoefficientRing:
    """Parse a CLI ring spec: ``z`` for the integers, ``zp:<p>`` for Z/pZ."""
    s = spec.strip().lower()
    if s == "z":
        return ZZ
    if s.startswith("zp:"):
        try:
            p = int(s[3:])
        except ValueError:
            raise ValueError(f"bad ring spec {spec!r}: expected zp:<prime>") from None
        if p == 0:
            raise ValueError(f"bad ring spec {spec!r}: use 'z' for the integers")
        return CoefficientRing(p)
    raise ValueError(f"bad ring spec {spec!r}: expected 'z' or 'zp:<prime>'")
