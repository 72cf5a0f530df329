"""Ready-made labeled models: small classics plus program-derived automata.

The small fixtures here have fully derived-by-hand homology and labels, which
makes them the anchor points of the test suite: a circle whose cycle label is
the letter sum, the unfilled square whose hole is invisible to labels, the
two-square torus, the flipped variant with 2-torsion, and the doubly-cyclic
"both processes loop" automaton whose top class carries a product label.

Program-derived models (mutual exclusion, dining philosophers, the lock
examples) live at the bottom; they compile shared-variable programs from
``programs`` into automata.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .hda import Alphabet, Hda, assert_valid_hda
from .precubical import PrecubicalSet

if TYPE_CHECKING:
    from .programs import SharedVariableProgram


def directed_circle(words: Sequence) -> Hda:
    """A directed cycle with one edge per word, in order.

    Each entry is the word of one edge: a plain string contributes one
    letter per character, a sequence of strings is taken letter by letter
    (for multi-character action names).  A single word gives a one-vertex
    loop.  The cycle class in degree one is the sum of all edges and its
    label is the sum of all letters of all words.
    """
    spelled = [tuple(word) for word in words]
    k = len(spelled)
    if k < 1:
        raise ValueError("need at least one word")
    if any(not word for word in spelled):
        raise ValueError("empty word")
    letters = [a for word in spelled for a in word]
    cells = {0: [f"v{i}" for i in range(k)], 1: [f"x{i}" for i in range(k)]}
    faces = {(1, f"x{i}"): ([f"v{i}"], [f"v{(i + 1) % k}"]) for i in range(k)}
    h = Hda(
        complex=PrecubicalSet(cells, faces),
        alphabet=Alphabet(dict.fromkeys(letters)),
        labels={f"x{i}": spelled[i] for i in range(k)},
        initial=frozenset({(0, "v0")}),
        final=frozenset({(0, "v0")}),
    )
    assert_valid_hda(h)
    return h


def labeled_circle(letters: Sequence[str]) -> Hda:
    """A directed cycle with one single-letter edge per entry, in order."""
    return directed_circle([(a,) for a in letters])


def labeled_interval(letters: Sequence[str]) -> Hda:
    """A chain of edges spelling the given word, start to end."""
    letters = list(letters)
    k = len(letters)
    cells = {0: [f"v{i}" for i in range(k + 1)], 1: [f"x{i}" for i in range(k)]}
    faces = {(1, f"x{i}"): ([f"v{i}"], [f"v{i + 1}"]) for i in range(k)}
    h = Hda(
        complex=PrecubicalSet(cells, faces),
        alphabet=Alphabet(dict.fromkeys(letters)),
        labels={f"x{i}": (letters[i],) for i in range(k)},
        initial=frozenset({(0, "v0")}),
        final=frozenset({(0, f"v{k}")}),
    )
    assert_valid_hda(h)
    return h


def _square_complex(filled: bool) -> PrecubicalSet:
    cells = {0: ["00", "10", "01", "11"], 1: ["bottom", "top", "left", "right"]}
    faces = {
        (1, "bottom"): (["00"], ["10"]),
        (1, "top"): (["01"], ["11"]),
        (1, "left"): (["00"], ["01"]),
        (1, "right"): (["10"], ["11"]),
    }
    if filled:
        # Direction 1 runs along a (bottom/top), so the lower direction-1
        # face is the edge left over when that direction is frozen: "left".
        cells[2] = ["s"]
        faces[(2, "s")] = (["left", "bottom"], ["right", "top"])
    return PrecubicalSet(cells, faces)


def boundary_square(a: str = "a", b: str = "b") -> Hda:
    """The hollow square: two actions that cannot be run concurrently.

    Its 1-homology is free of rank one but the cycle's label is a + b - a - b
    = 0; the hole is real yet invisible to letter counts.
    """
    h = Hda(
        complex=_square_complex(filled=False),
        alphabet=Alphabet([a, b]),
        labels={"bottom": (a,), "top": (a,), "left": (b,), "right": (b,)},
        initial=frozenset({(0, "00")}),
        final=frozenset({(0, "11")}),
    )
    assert_valid_hda(h)
    return h


def filled_square(a: str = "a", b: str = "b") -> Hda:
    """One 2-cube: the two actions run independently."""
    h = Hda(
        complex=_square_complex(filled=True),
        alphabet=Alphabet([a, b]),
        labels={"bottom": (a,), "top": (a,), "left": (b,), "right": (b,)},
        initial=frozenset({(0, "00")}),
        final=frozenset({(0, "11")}),
    )
    assert_valid_hda(h)
    return h


def torus_hda(a1: str = "a1", a2: str = "a2", b: str = "b") -> Hda:
    """Two squares glued into a torus.

    Two parallel tracks h1, h2 between the vertices, a loop at each vertex
    labeled b, and squares filling b against each track.  Integral homology
    is Z, Z^2, Z; the degree-2 label is a1^b + a2^b mod 2.
    """
    cells = {0: ["u", "v"], 1: ["h1", "h2", "cu", "cv"], 2: ["s1", "s2"]}
    faces = {
        (1, "h1"): (["u"], ["v"]),
        (1, "h2"): (["u"], ["v"]),
        (1, "cu"): (["u"], ["u"]),
        (1, "cv"): (["v"], ["v"]),
        (2, "s1"): (["cu", "h1"], ["cv", "h1"]),
        (2, "s2"): (["cu", "h2"], ["cv", "h2"]),
    }
    h = Hda(
        complex=PrecubicalSet(cells, faces),
        alphabet=Alphabet(dict.fromkeys([a1, a2, b])),
        labels={"h1": (a1,), "h2": (a2,), "cu": (b,), "cv": (b,)},
        initial=frozenset({(0, "u")}),
        final=frozenset({(0, "u")}),
    )
    assert_valid_hda(h)
    return h


def klein_hda(a: str = "a", b: str = "b") -> Hda:
    """The torus gluing with a flip; integral 1-homology gains 2-torsion.

    Both tracks must carry one letter, otherwise the flipped square breaks
    the square condition, which is why this builder takes a single track
    letter.  The torsion class [cv - m] labels to b - b = 0, an executable
    instance of labels vanishing on torsion.
    """
    cells = {0: ["u", "v"], 1: ["e1", "e2", "m", "cv"], 2: ["s1", "s2"]}
    faces = {
        (1, "e1"): (["u"], ["v"]),
        (1, "e2"): (["u"], ["v"]),
        (1, "m"): (["u"], ["u"]),
        (1, "cv"): (["v"], ["v"]),
        (2, "s1"): (["m", "e1"], ["cv", "e2"]),
        (2, "s2"): (["m", "e2"], ["cv", "e1"]),
    }
    h = Hda(
        complex=PrecubicalSet(cells, faces),
        alphabet=Alphabet(dict.fromkeys([a, b])),
        labels={"e1": (a,), "e2": (a,), "m": (b,), "cv": (b,)},
        initial=frozenset({(0, "u")}),
        final=frozenset({(0, "u")}),
    )
    assert_valid_hda(h)
    return h


def directed_torus(words_a: Sequence, words_b: Sequence) -> Hda:
    """The tensor product of two directed circles.

    Built through the generic product so that label restriction, markings
    and the grid structure all come from one place; ``two_phase_torus`` is
    the hand-built cross-check for the two-word, two-word case.
    """
    from .products import tensor_hda

    return tensor_hda(directed_circle(words_a), directed_circle(words_b))


def two_phase_torus(
    inc0: str = "a+",
    dec0: str = "a-",
    inc1: str = "b+",
    dec1: str = "b-",
) -> Hda:
    """Two independent two-phase loops running concurrently.

    Process 0 alternates inc0/dec0, process 1 alternates inc1/dec1, with
    every pair of steps filled as a square: the product of two circles.  The
    top homology class is all four squares and its mod-2 label factors as
    (inc0 + dec0) ^ (inc1 + dec1).
    """
    moves0 = {"i": (inc0, "0", "1"), "d": (dec0, "1", "0")}
    moves1 = {"i": (inc1, "0", "1"), "d": (dec1, "1", "0")}
    cells = {
        0: [p0 + p1 for p0 in "01" for p1 in "01"],
        1: [],
        2: [],
    }
    faces = {}
    labels = {}
    for m, (letter, s, e) in moves0.items():
        for p1 in "01":
            key = f"{m}0@{p1}"
            cells[1].append(key)
            faces[(1, key)] = ([s + p1], [e + p1])
            labels[key] = (letter,)
    for m, (letter, s, e) in moves1.items():
        for p0 in "01":
            key = f"{m}1@{p0}"
            cells[1].append(key)
            faces[(1, key)] = ([p0 + s], [p0 + e])
            labels[key] = (letter,)
    for m0, (_, s0, e0) in moves0.items():
        for m1, (_, s1, e1) in moves1.items():
            key = f"{m0}{m1}"
            cells[2].append(key)
            faces[(2, key)] = (
                [f"{m1}1@{s0}", f"{m0}0@{s1}"],
                [f"{m1}1@{e0}", f"{m0}0@{e1}"],
            )
    h = Hda(
        complex=PrecubicalSet(cells, faces),
        alphabet=Alphabet(dict.fromkeys([inc0, dec0, inc1, dec1])),
        labels=labels,
        initial=frozenset({(0, "00")}),
        final=frozenset({(0, "00")}),
    )
    assert_valid_hda(h)
    return h


# -- program-derived models -----------------------------------------------------


def peterson() -> SharedVariableProgram:
    """Peterson mutual exclusion for two processes.

    Each process raises its flag, yields the turn, waits until the other
    flag is down or the turn came back, runs its critical section, and
    lowers the flag.  Both turn values are allowed initially.
    """
    from .programs import Process, SharedVariable, SharedVariableProgram, Transition

    variables = (
        SharedVariable("b0", (0, 1), (0,)),
        SharedVariable("b1", (0, 1), (0,)),
        SharedVariable("t", (0, 1), (0, 1)),
    )
    processes = []
    for i in (0, 1):
        other = 1 - i
        trans = (
            Transition("idle", "flagged", f"b{i}:=1_{i}", effects=(("set", f"b{i}", 1),)),
            Transition(
                "flagged", "yielded", f"t:={other}_{i}", effects=(("set", "t", other),)
            ),
            Transition(
                "yielded",
                "critical",
                f"crit_{i}",
                guard=("or", [("cmp", "==", f"b{other}", 0), ("cmp", "==", "t", i)]),
            ),
            Transition("critical", "idle", f"b{i}:=0_{i}", effects=(("set", f"b{i}", 0),)),
        )
        processes.append(
            Process(f"p{i}", ("idle", "flagged", "yielded", "critical"), "idle", trans)
        )
    return SharedVariableProgram("peterson", variables, tuple(processes))


def dining_philosophers(n: int) -> SharedVariableProgram:
    """n philosophers around a table, one stick between each pair.

    Stick i sits to the left of philosopher i, who picks left first, then
    right (stick i+1), eats, and releases in the same order.  Only the two
    pick steps are guarded.
    """
    from .programs import Process, SharedVariable, SharedVariableProgram, Transition

    if n < 2:
        raise ValueError("need at least two philosophers")
    variables = tuple(SharedVariable(f"stick{i}", (0, 1), (0,)) for i in range(n))
    states = ("thinking", "got_left", "got_both", "eaten", "dropped_left", "released")
    processes = []
    for i in range(n):
        left = f"stick{i}"
        right = f"stick{(i + 1) % n}"
        trans = (
            Transition(
                "thinking",
                "got_left",
                f"pick_l_{i}",
                guard=("cmp", "==", left, 0),
                effects=(("set", left, 1),),
            ),
            Transition(
                "got_left",
                "got_both",
                f"pick_r_{i}",
                guard=("cmp", "==", right, 0),
                effects=(("set", right, 1),),
            ),
            Transition("got_both", "eaten", f"eat_{i}"),
            Transition("eaten", "dropped_left", f"put_l_{i}", effects=(("set", left, 0),)),
            Transition(
                "dropped_left", "released", f"put_r_{i}", effects=(("set", right, 0),)
            ),
            Transition("released", "thinking", f"think_{i}"),
        )
        processes.append(Process(f"phil{i}", states, "thinking", trans))
    return SharedVariableProgram(f"philosophers{n}", variables, tuple(processes))


def lock_counter() -> SharedVariableProgram:
    """Two processes bumping a bounded counter with no locking at all.

    Each process moves low -> high by x++ and back by x--; the counter
    domain 0..2 admits both being high at once.  Compiles to the product of
    two circles, whose top class is the concurrency witness the locked
    specification lacks.
    """
    from .programs import Process, SharedVariable, SharedVariableProgram, Transition

    variables = (SharedVariable("x", (0, 1, 2), (0,)),)
    processes = tuple(
        Process(
            f"p{i}",
            ("low", "high"),
            "low",
            (
                Transition("low", "high", f"x++_{i}", effects=(("add", "x", 1),)),
                Transition("high", "low", f"x--_{i}", effects=(("add", "x", -1),)),
            ),
        )
        for i in (0, 1)
    )
    return SharedVariableProgram("lock_counter", variables, processes)


def lock_spec() -> Hda:
    """What a locked counter is allowed to do: bump sections never overlap.

    A wedge of two directed loops at the shared idle vertex, one loop per
    process, with no squares; any degree-2 class in an implementation is
    already more concurrency than this specification permits.
    """
    cells = {0: ["v", "w0", "w1"], 1: ["x++_0", "x--_0", "x++_1", "x--_1"]}
    faces = {
        (1, "x++_0"): (["v"], ["w0"]),
        (1, "x--_0"): (["w0"], ["v"]),
        (1, "x++_1"): (["v"], ["w1"]),
        (1, "x--_1"): (["w1"], ["v"]),
    }
    h = Hda(
        complex=PrecubicalSet(cells, faces),
        alphabet=Alphabet(["x++_0", "x--_0", "x++_1", "x--_1"]),
        labels={k: (k,) for k in cells[1]},
        initial=frozenset({(0, "v")}),
        final=frozenset({(0, "v")}),
    )
    assert_valid_hda(h)
    return h
