from itertools import combinations

import pytest

from hda_lab.exterior import word_to_vector
from hda_lab.hda import validate_hda
from hda_lab.homology import _field_homology, all_homology, gf2_boundary_columns
from hda_lab.labeling import labeled_degree, labeled_homology
from hda_lab.models import (
    dining_philosophers,
    directed_circle,
    directed_torus,
    lock_counter,
    lock_spec,
    peterson,
    two_phase_torus,
)
from hda_lab.programs import program_to_hda, validate_program
from hda_lab.reports import _membership
from hda_lab.rings import GF2, ZZ


def phase_table_counts(n):
    """Cube counts for the dining table, straight from phase vectors.

    Philosopher i walks a six-phase cycle and holds the left stick (number
    i) during phases 1-3 and the right stick (number i+1) during phases
    2-4.  The only guarded steps are leaving phase 0, which needs the left
    stick free, and leaving phase 1, which needs the right stick free.  Two
    enabled steps clash exactly when they grab the same stick, which pits
    philosopher i at phase 0 against philosopher i-1 at phase 1; every
    other enabled pair commutes with the same end state.  A d-cube is a
    reachable phase vector plus a d-set of enabled, pairwise clash-free
    philosophers, so counting needs no cube machinery at all.
    """

    def stick_free(ph, s):
        return ph[s] not in (1, 2, 3) and ph[(s - 1) % n] not in (2, 3, 4)

    def enabled(ph, i):
        if ph[i] == 0:
            return stick_free(ph, i)
        if ph[i] == 1:
            return stick_free(ph, (i + 1) % n)
        return True

    start = (0,) * n
    seen = {start}
    queue = [start]
    while queue:
        ph = queue.pop()
        for i in range(n):
            if enabled(ph, i):
                step = ph[:i] + ((ph[i] + 1) % 6,) + ph[i + 1 :]
                if step not in seen:
                    seen.add(step)
                    queue.append(step)

    counts = [0] * (n + 1)
    for ph in seen:
        live = [i for i in range(n) if enabled(ph, i)]
        for d in range(len(live) + 1):
            for sub in combinations(live, d):
                chosen = set(sub)
                if any(
                    ph[i] == 0 and (i - 1) % n in chosen and ph[(i - 1) % n] == 1
                    for i in sub
                ):
                    continue
                counts[d] += 1
    return counts


def gf2_rank(columns):
    """Rank over the two-element field by plain bitmask elimination."""
    pivots = {}
    for col in columns:
        while col:
            top = col.bit_length() - 1
            if top in pivots:
                col ^= pivots[top]
            else:
                pivots[top] = col
                break
    return len(pivots)


def test_lock_counter_compiles_to_the_directed_torus():
    prog = lock_counter()
    assert validate_program(prog) == []
    h = program_to_hda(prog)
    assert validate_hda(h) == []
    assert [h.complex.size(n) for n in range(3)] == [4, 8, 4]

    t = two_phase_torus("x++_0", "x--_0", "x++_1", "x--_1")
    for n in range(3):
        assert h.complex.size(n) == t.complex.size(n)
    hh = labeled_homology(h, ZZ)
    th = labeled_homology(t, ZZ)
    for n in range(3):
        assert hh[n].group.describe() == th[n].group.describe()
        assert sorted(str(c.label) for c in hh[n].classes) == sorted(
            str(c.label) for c in th[n].classes
        )


def test_lock_counter_top_class_is_the_interleaving_witness():
    h = program_to_hda(lock_counter())
    rep = labeled_degree(h, 2, ZZ)
    assert rep.group.describe() == "Z"
    bump0 = word_to_vector(h.alphabet, ("x++_0", "x--_0"), ZZ)
    bump1 = word_to_vector(h.alphabet, ("x++_1", "x--_1"), ZZ)
    assert [c.label for c in rep.classes] == [bump0 ^ bump1]

    rep2 = labeled_degree(h, 2, GF2)
    w = word_to_vector(h.alphabet, ("x++_0", "x--_0"), GF2) ^ word_to_vector(
        h.alphabet, ("x++_1", "x--_1"), GF2
    )
    assert _membership(rep2.label_image_basis, w, GF2, 2, h.alphabet)[0] is not None


def test_lock_spec_has_no_concurrency():
    s = lock_spec()
    assert [s.complex.size(n) for n in range(3)] == [3, 4, 0]
    sh = labeled_homology(s, ZZ)
    assert sh[0].group.describe() == "Z"
    assert sh[1].group.describe() == "Z^2"
    assert 2 not in sh or sh[2].group.describe() == "0"
    assert sorted(str(c.label) for c in sh[1].classes) == [
        "x++_0 + x--_0",
        "x++_1 + x--_1",
    ]


def test_peterson_state_space_and_homology():
    prog = peterson()
    assert validate_program(prog) == []
    h = program_to_hda(prog)
    assert validate_hda(h) == []
    assert [h.complex.size(n) for n in range(3)] == [20, 34, 10]
    H = all_homology(h.complex, ZZ)
    assert H[0].describe() == "Z"
    assert H[1].describe() == "Z^5"
    assert H[2].describe() == "0"
    # mutual exclusion: no reachable state has both processes critical
    assert not any(
        k.startswith("critical,critical|") for k in h.complex.cells(0)
    )


def test_peterson_turn_variable_matters():
    # both processes flagged and yielded: only the turn owner may enter
    h = program_to_hda(peterson())
    both_yielded = [k for k in h.complex.cells(0) if k.startswith("yielded,yielded|")]
    assert len(both_yielded) == 2
    crit_edges = [
        e
        for e in h.complex.cells(1)
        if "!crit" in e and e.split("!")[0] in both_yielded
    ]
    assert len(crit_edges) == 2
    assert {e.split("!")[1] for e in crit_edges} == {"crit_0", "crit_1"}


def test_philosophers_rejects_degenerate_tables():
    with pytest.raises(ValueError):
        dining_philosophers(1)


def test_philosophers_two_against_phase_oracle():
    h = program_to_hda(dining_philosophers(2))
    sizes = [h.complex.size(n) for n in range(3)]
    assert sizes == phase_table_counts(2)[:3]
    assert validate_hda(h) == []


def test_philosophers_three_pinned_numbers():
    h = program_to_hda(dining_philosophers(3))
    P = h.complex
    sizes = [P.size(n) for n in range(5)]
    assert sizes == [99, 240, 183, 44, 0]
    assert sizes[:4] == phase_table_counts(3)[:4]
    assert validate_hda(h) == []
    H = all_homology(P, GF2)
    assert [H[n].free_rank for n in range(4)] == [1, 3, 0, 0]
    slow = _field_homology(P, GF2, bitsets=False)
    for n in range(4):
        assert slow[n].free_rank == H[n].free_rank
    HZ = all_homology(P, ZZ)
    assert [HZ[n].describe() for n in range(4)] == ["Z", "Z^3", "0", "0"]


def test_philosophers_four_pinned_numbers():
    oracle = phase_table_counts(4)
    assert oracle == [465, 1508, 1766, 884, 160]
    h = program_to_hda(dining_philosophers(4))
    P = h.complex
    assert [P.size(n) for n in range(5)] == oracle
    assert validate_hda(h) == []

    ranks = [gf2_rank(gf2_boundary_columns(P, n)) for n in range(1, 5)]
    assert ranks == [464, 1040, 724, 160]
    betti = []
    for n in range(5):
        kernel = P.size(n) - (ranks[n - 1] if n >= 1 else 0)
        image = ranks[n] if n < 4 else 0
        betti.append(kernel - image)
    assert betti == [1, 4, 2, 0, 0]
    H = all_homology(P, GF2)
    assert [H[n].free_rank for n in range(5)] == betti
    euler = sum((-1) ** n * P.size(n) for n in range(5))
    assert euler == sum((-1) ** n * b for n, b in enumerate(betti)) == -1


def test_philosophers_four_stick_conflicts_are_the_only_missing_squares():
    h = program_to_hda(dining_philosophers(4))
    rep = labeled_degree(h, 2, GF2)
    assert rep.group.free_rank == 2
    alpha = h.alphabet

    def round_sum(i):
        word = tuple(
            f"{a}_{i}" for a in ("pick_l", "pick_r", "eat", "put_l", "put_r", "think")
        )
        return word_to_vector(alpha, word, GF2)

    for i, j in combinations(range(4), 2):
        w = round_sum(i) ^ round_sum(j)
        hit = _membership(rep.label_image_basis, w, GF2, 2, alpha)[0] is not None
        assert hit == (j - i == 2), (i, j)


def test_directed_circle_words():
    h = directed_circle(["ab"])
    assert h.complex.size(0) == 1 and h.complex.size(1) == 1
    rep = labeled_degree(h, 1, ZZ)
    assert rep.group.free_rank == 1
    assert [str(c.label) for c in rep.classes] == ["a + b"]

    h = directed_circle(["a", "b", "c"])
    assert h.complex.size(0) == 3
    rep = labeled_degree(h, 1, ZZ)
    assert rep.group.free_rank == 1
    assert [str(c.label) for c in rep.classes] == ["a + b + c"]

    with pytest.raises(ValueError):
        directed_circle([])
    with pytest.raises(ValueError):
        directed_circle(["a", ""])


def test_directed_torus_of_words_matches_the_two_phase_build():
    t = directed_torus([("a+",), ("a-",)], [("b+",), ("b-",)])
    assert validate_hda(t) == []
    d = two_phase_torus("a+", "a-", "b+", "b-")
    assert [t.complex.size(n) for n in range(3)] == [
        d.complex.size(n) for n in range(3)
    ]
    left = labeled_degree(t, 2, GF2)
    right = labeled_degree(d, 2, GF2)
    assert [str(c.label) for c in left.classes] == [
        str(c.label) for c in right.classes
    ]

    skew = directed_torus(["ab"], [("c",)])
    rep = labeled_degree(skew, 2, ZZ)
    assert [str(c.label) for c in rep.classes] == ["a∧c + b∧c"]
