"""Higher-dimensional automata: labeled precubical sets with start/accept cells.

An HDA is a precubical set together with an alphabet of action names, a word
of letters on every edge, and sets of initial and final cells.  The labeling
must satisfy the square condition: opposite edges of every 2-cube carry the
same word.  That local condition makes the word of "the direction-i edge" of
any cube well defined no matter which corner the edge is read at; the
diagnostic ``corner_word_violations`` checks exactly this derived global
consistency and is expected to stay empty for valid automata.

Edges may carry multi-letter words, not just single letters; subdivision-type
morphisms produce those naturally.  The empty word is allowed and denotes an
unobservable step.

``Alphabet`` lives here, not beside the exterior algebra its order indexes,
so that reading and checking an automaton never compiles that algebra.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable, Iterator

from .precubical import (
    Cube,
    Key,
    PrecubicalSet,
    Violation,
    edge_in_direction,
    evaluate_subcube,
    validate_precubical,
)

if TYPE_CHECKING:
    from .constructions import Path

Word = tuple[str, ...]


class Alphabet:
    """An ordered set of action letters; order fixes the basis order.

    Letters are strings.  The positions define the index tuples used as
    exterior basis keys, so two elements are only compatible when built over
    the same alphabet.
    """

    __slots__ = ("_letters", "_pos")

    def __init__(self, letters: Iterable[str]) -> None:
        self._letters = tuple(letters)
        for a in self._letters:
            if not isinstance(a, str) or not a:
                raise ValueError(f"letters must be nonempty strings, got {a!r}")
            # A lone surrogate (a JSON escape such as "\ud800", or argv bytes
            # that are not UTF-8) makes a letter no report can print.
            if not a.isascii() and any("\ud800" <= c <= "\udfff" for c in a):
                raise ValueError(f"letter {a!r} holds a lone surrogate")
        self._pos = {a: i for i, a in enumerate(self._letters)}
        if len(self._pos) != len(self._letters):
            raise ValueError("alphabet letters must be distinct")

    @property
    def letters(self) -> tuple[str, ...]:
        return self._letters

    def __len__(self) -> int:
        return len(self._letters)

    def __iter__(self) -> Iterator[str]:
        return iter(self._letters)

    def __contains__(self, letter: str) -> bool:
        return letter in self._pos

    def index(self, letter: str) -> int:
        try:
            return self._pos[letter]
        except KeyError:
            raise KeyError(f"letter {letter!r} not in alphabet") from None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self._letters == other._letters

    def __hash__(self) -> int:
        return hash(self._letters)

    def __repr__(self) -> str:
        return f"Alphabet({list(self._letters)!r})"

    def union(self, other: "Alphabet") -> "Alphabet":
        """Stable union: self's letters in order, then other's new letters."""
        extra = [a for a in other if a not in self]
        return Alphabet(self._letters + tuple(extra))


class Hda:
    """A labeled precubical set.

    ``labels`` maps edge keys (dimension-1 cell keys) to words.  ``initial``
    and ``final`` are cube sets; vertices in every model built here, though
    the structure allows higher start cells and validation only requires
    membership in the complex.
    """

    def __init__(
        self,
        complex: PrecubicalSet,
        alphabet: Alphabet,
        labels: dict[Key, Word],
        initial: frozenset[Cube] = frozenset(),
        final: frozenset[Cube] = frozenset(),
    ) -> None:
        self.complex = complex
        self.alphabet = alphabet
        self.labels = labels
        self.initial = initial
        self.final = final

    def edge_word(self, edge: Cube) -> Word:
        if edge[0] != 1:
            raise ValueError(f"{edge} is not an edge")
        return self.labels[edge[1]]

    def path_word(self, path: Path) -> Word:
        """Concatenated word along a path; empty path gives the empty word."""
        out: list[str] = []
        for e in path.edges:
            out.extend(self.labels[e[1]])
        return tuple(out)

    def direction_word(self, cube: Cube, i: int) -> Word:
        """The word of the direction-i edge of a cube (read at one corner)."""
        return self.edge_word(edge_in_direction(self.complex, cube, 0, i))


def validate_hda(h: Hda) -> list[Violation]:
    """Structural defects: complex, label table, square condition, markings."""
    out = validate_precubical(h.complex)
    P = h.complex
    edges = P.cells(1)
    words = [*map(h.labels.get, edges)]
    # A column of tuples of letters of the alphabet, one per edge and no
    # label besides, passes at once; otherwise the edges are read one by one
    # to name each defect.  The type test comes before the alphabet test, so
    # that an unhashable letter reaches the diagnosis.
    if not (
        len(h.labels) == len(edges)
        and {tuple}.issuperset(map(type, words))
        and {str}.issuperset(map(type, itertools.chain.from_iterable(words)))
        and set(h.alphabet.letters).issuperset(itertools.chain.from_iterable(words))
    ):
        for key in edges:
            if key not in h.labels:
                out.append(Violation("unlabeled-edge", (1, key), "edge has no word"))
                continue
            word = h.labels[key]
            if not isinstance(word, tuple) or any(not isinstance(a, str) for a in word):
                out.append(
                    Violation("bad-word", (1, key), f"word must be a tuple of letters, got {word!r}")
                )
                continue
            for a in word:
                if a not in h.alphabet:
                    out.append(
                        Violation("unknown-letter", (1, key), f"letter {a!r} not in alphabet")
                    )
        edge_keys = set(edges)
        for key in h.labels:
            if key not in edge_keys:
                out.append(Violation("orphan-label", (1, key), "label for unknown edge"))
    if not any(v.kind in ("missing-faces", "dangling-face", "face-arity") for v in out):
        # Every square's faces are edges, so their words are read by
        # position: first a column per face for all squares at once, then,
        # when lower and upper columns differ, square by square.
        flats = P.face_positions(2)
        sides = [[*map(words.__getitem__, col)] for col in zip(*flats)]
        for key, flat in zip(P.cells(2), flats if sides[:2] != sides[2:] else ()):
            sq = (2, key)
            for i, (lo, hi) in enumerate(zip(flat[:2], flat[2:]), start=1):
                wl = words[lo]
                wh = words[hi]
                if wl is not None and wh is not None and wl != wh:
                    out.append(
                        Violation(
                            "square-condition",
                            sq,
                            f"opposite edges disagree in direction {i}: "
                            f"{wl!r} vs {wh!r}",
                            (i,),
                        )
                    )
    for name, cubes in (("initial", h.initial), ("final", h.final)):
        for cube in cubes:
            if cube not in P:
                out.append(Violation(f"{name}-not-in-complex", cube, "marked cell missing"))
    return out


def assert_valid_hda(h: Hda) -> None:
    bad = validate_hda(h)
    if bad:
        raise ValueError("invalid HDA:\n" + "\n".join(str(v) for v in bad[:10]))


def corner_word_violations(h: Hda) -> list[Violation]:
    """Check the derived parallel-edge property on every cube.

    In a valid HDA the direction-i edges read at all 2^(n-1) corners of an
    n-cube carry one common word; this follows from the square condition by
    walking corner to corner.  Returns every disagreement found, so it can be
    used both as a lemma check in tests and to pinpoint which cube breaks a
    damaged model.
    """
    out: list[Violation] = []
    P = h.complex
    for n in P.dims():
        if n < 2:
            continue
        for cube in P.cubes(n):
            for i in range(1, n + 1):
                words = {}
                for corner in itertools.product((0, 1), repeat=n - 1):
                    coords = list(corner)
                    coords.insert(i - 1, (0, 1))
                    edge = evaluate_subcube(P, cube, tuple(coords))
                    words.setdefault(h.labels.get(edge[1]), []).append(corner)
                if len(words) > 1:
                    out.append(
                        Violation(
                            "corner-word",
                            cube,
                            f"direction {i} edges disagree: " +
                            "; ".join(f"{w!r} at {cs}" for w, cs in sorted(words.items(), key=str)),
                            (i,),
                        )
                    )
    return out
