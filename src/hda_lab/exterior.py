"""Exterior algebra over the free module on an action alphabet.

Labels of n-cubes live in the degree-n part of the exterior algebra on the
alphabet letters.  A basis element of degree n is a strictly increasing tuple
of letter indices; an element is a finite coefficient dictionary over such
tuples.  The wedge product is computed by merging index tuples and counting
inversions for the sign; repeated letters kill a term, in every
characteristic (the label calculus needs a*a = 0 over Z/2 as well, which is
the alternating algebra rather than the plain quotient by squares).

Words (tuples of letters attached to edge paths) enter the algebra through
``word_to_vector``, the sum of the letters with multiplicity in degree 1.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

from .rings import CoefficientRing, Frozen, ZZ

if TYPE_CHECKING:
    from .hda import Alphabet


def perm_sign(perm: Sequence[int]) -> int:
    """Sign of a permutation given as a value sequence."""
    sign = 1
    vals = list(perm)
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            if vals[i] > vals[j]:
                sign = -sign
    return sign


def _merge_sign(left: tuple[int, ...], right: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Merge two strictly increasing index tuples.

    Returns (merged, sign) where sign is (-1)^inversions, or (merged, 0) when
    the tuples share an index (the wedge vanishes).
    """
    merged: list[int] = []
    sign = 1
    i = j = 0
    while i < len(left) and j < len(right):
        a, b = left[i], right[j]
        if a == b:
            return (), 0
        if a < b:
            merged.append(a)
            i += 1
        else:
            merged.append(b)
            j += 1
            # b jumps over the remaining len(left) - i entries of left.
            if (len(left) - i) % 2:
                sign = -sign
    merged.extend(left[i:])
    merged.extend(right[j:])
    return tuple(merged), sign


Terms = dict[tuple[int, ...], int]  # {strictly increasing index tuple: coefficient}


def wedge_terms(
    left: Mapping[tuple[int, ...], int], right: Mapping[tuple[int, ...], int], ring: CoefficientRing
) -> Terms:
    """The wedge of two elements given as terms, normalized, zeros dropped.

    Keys keep the order in which the products first produce them.
    """
    out: Terms = {}
    for li, lc in left.items():
        for ri, rc in right.items():
            merged, sign = _merge_sign(li, ri)
            if sign:
                out[merged] = out.get(merged, 0) + sign * lc * rc
    return {k: x for k, x in ((k, ring.normalize(x)) for k, x in out.items()) if x}


class ExteriorElement(Frozen):
    """An element of the exterior algebra: {index tuple: coefficient}.

    Immutable; arithmetic returns new elements.  Zero coefficients are never
    stored.  ``terms`` keys are strictly increasing tuples of alphabet
    indices, with the empty tuple as the degree-0 unit basis element.
    """

    def __init__(
        self,
        alphabet: Alphabet,
        ring: CoefficientRing = ZZ,
        terms: Mapping[tuple[int, ...], int] | None = None,
    ) -> None:
        clean: dict[tuple[int, ...], int] = {}
        n = len(alphabet)
        for idx, c in (terms or {}).items():
            idx = tuple(idx)
            if any(not 0 <= i < n for i in idx):
                raise ValueError(f"index tuple {idx} out of alphabet range")
            if any(idx[t] >= idx[t + 1] for t in range(len(idx) - 1)):
                raise ValueError(f"index tuple {idx} is not strictly increasing")
            c = ring.normalize(c)
            if c:
                clean[idx] = c
        self.__dict__.update(alphabet=alphabet, ring=ring, terms=clean)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def unit(alphabet: Alphabet, ring: CoefficientRing = ZZ) -> "ExteriorElement":
        """The multiplicative unit 1, in degree 0."""
        return ExteriorElement(alphabet, ring, {(): 1})

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    # -- arithmetic ----------------------------------------------------------

    def _check_compatible(self, other: "ExteriorElement") -> None:
        if self.alphabet != other.alphabet:
            raise ValueError("elements over different alphabets")
        if self.ring != other.ring:
            raise ValueError("elements over different rings")

    def __add__(self, other: "ExteriorElement") -> "ExteriorElement":
        self._check_compatible(other)
        terms = self.ring.combine(((self.terms, 1), (other.terms, 1)))
        return ExteriorElement(self.alphabet, self.ring, terms)

    def __sub__(self, other: "ExteriorElement") -> "ExteriorElement":
        return self + (-other)

    def __neg__(self) -> "ExteriorElement":
        return self.scale(-1)

    def scale(self, c: int) -> "ExteriorElement":
        return ExteriorElement(
            self.alphabet, self.ring, {idx: c * v for idx, v in self.terms.items()}
        )

    def __rmul__(self, c: int) -> "ExteriorElement":
        if not isinstance(c, int):
            return NotImplemented
        return self.scale(c)

    def wedge(self, other: "ExteriorElement") -> "ExteriorElement":
        self._check_compatible(other)
        terms = wedge_terms(self.terms, other.terms, self.ring)
        return ExteriorElement(self.alphabet, self.ring, terms)

    def __xor__(self, other: "ExteriorElement") -> "ExteriorElement":
        return self.wedge(other)

    def __hash__(self) -> int:  # ``terms`` is a dict, so Frozen's field-tuple hash fails
        return hash((self.alphabet, self.ring, frozenset(self.terms.items())))

    def retag(self, alphabet: Alphabet) -> "ExteriorElement":
        """Re-express over another alphabet containing the same letters.

        Letters keep their names; when the new alphabet orders them
        differently the basis tuples are re-sorted, and each swap flips the
        coefficient's sign, as wedge factors anticommute.
        """
        terms = {}
        for idx, c in self.terms.items():
            translated = [alphabet.index(self.alphabet.letters[i]) for i in idx]
            terms[tuple(sorted(translated))] = perm_sign(translated) * c
        return ExteriorElement(alphabet, self.ring, terms)

    # -- rendering ------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for idx in sorted(self.terms, key=lambda t: (len(t), t)):
            c = self.terms[idx]
            mono = "1" if not idx else "∧".join(self.alphabet.letters[i] for i in idx)
            if c == 1 and idx:
                parts.append(mono)
            elif c == -1 and idx:
                parts.append(f"-{mono}")
            elif not idx:
                parts.append(str(c))
            else:
                parts.append(f"{c}·{mono}")
        out = parts[0]
        for p in parts[1:]:
            if p.startswith("-"):
                out += " - " + p[1:]
            else:
                out += " + " + p
        return out

    def __repr__(self) -> str:
        return f"<ExteriorElement {self} over {self.ring}>"


def word_to_vector(
    alphabet: Alphabet, word: Sequence[str], ring: CoefficientRing = ZZ
) -> ExteriorElement:
    """The degree-1 letter sum of a word, with multiplicity.

    The empty word gives 0.  This is the abelianization used on edge labels:
    the order of letters is forgotten, their counts are kept (mod p over a
    prime field).
    """
    terms = ring.combine(({(alphabet.index(a),): 1}, 1) for a in word)
    return ExteriorElement(alphabet, ring, terms)
