"""The program compiler against a brute-force oracle.

The oracle explores with a step function of its own and enumerates, at
every reachable state, every set of moves from distinct processes.  It keeps
a set as a cube exactly when the rule of the ``programs`` docstring holds:
every corner is reached the same way by every order of its moves.  The
compiled model must hold the same cells by key, the same faces by key, the
same labels and the same markings.
"""

import random
from collections import deque
from functools import cache
from itertools import combinations, product
from math import factorial

import pytest
from test_programs import _golden_programs

from hda_lab.programs import (
    Process,
    SharedVariable,
    SharedVariableProgram,
    Transition,
    eval_guard,
    program_to_hda,
    state_key,
    validate_program,
)


def step(prog, state, pid, t, seen):
    """The successor by transition t of process pid, or None; notes in
    ``seen`` when an ``add`` whose guard held left the domain."""
    locs, vals = state
    if locs[pid] != t.source:
        return None
    env = {v.name: x for v, x in zip(prog.variables, vals)}
    if not eval_guard(t.guard, env):
        return None
    new = dict(env)
    for op, var, amount in t.effects:
        new[var] = amount if op == "set" else env[var] + amount
    for v in prog.variables:
        if new[v.name] not in v.domain:
            if any(op == "add" and var == v.name for op, var, _ in t.effects):
                seen.add("saturated add")
            return None
    return (locs[:pid] + (t.target,) + locs[pid + 1 :], tuple(new[v.name] for v in prog.variables))


def oracle(prog, seen=None):
    """(cells, labels, markings) of the compiled model, by brute force:
    ``cells[n]`` maps each n-cube's key to the keys of its faces."""
    seen = set() if seen is None else seen
    moves = [(pid, t) for pid, p in enumerate(prog.processes) for t in p.transitions]
    after = cache(lambda s, i: step(prog, s, *moves[i], seen))
    locs = tuple(p.start for p in prog.processes)
    starts = [(locs, vals) for vals in product(*(v.initial for v in prog.variables))]
    states = dict.fromkeys(starts)
    queue = deque(states)
    while queue:
        s = queue.popleft()
        for i in range(len(moves)):
            s2 = after(s, i)
            if s2 is not None and s2 not in states:
                states[s2] = None
                queue.append(s2)

    cells: dict[int, dict[str, object]] = {}
    labels = {}
    for base in states:
        # Every order of moves from distinct processes, each enabled in turn:
        # the states it reaches, by the set of moves it used.
        reached: dict[frozenset, list] = {}

        def walk(s, used, pids):
            reached.setdefault(used, []).append(s)
            for i, (pid, _) in enumerate(moves):
                if pid not in pids and (s2 := after(s, i)) is not None:
                    walk(s2, used | {i}, pids | {pid})

        walk(base, frozenset(), frozenset())
        for used in reached:
            corners = [frozenset(c) for k in range(len(used) + 1) for c in combinations(used, k)]
            if not all(
                len(reached.get(c, ())) == factorial(len(c)) and len(set(reached[c])) == 1
                for c in corners
            ):
                continue
            order = sorted(used)  # moves are listed by process id
            tags = ["!" + moves[i][1].action for i in order]
            key = state_key(base) + "".join(tags)
            n = len(order)
            d0, d1 = [], []
            for j, i in enumerate(order):
                tail = "".join(tags[:j] + tags[j + 1 :])
                d0.append(state_key(base) + tail)
                d1.append(state_key(reached[frozenset([i])][0]) + tail)
            cells.setdefault(n, {})[key] = (tuple(d0), tuple(d1))
            if n == 1:
                labels[key] = (moves[order[0]][1].action,)
    marks = frozenset((0, state_key(s)) for s in starts)
    return cells, labels, marks


def compiled(prog):
    h = program_to_hda(prog)
    P = h.complex
    cells = {
        n: {key: P.face_keys((n, key)) for key in P.cells(n)} for n in P.dims()
    }
    assert h.initial == h.final
    return cells, h.labels, h.initial


_OPS = ("==", "!=", "<", "<=", ">", ">=")


def random_guard(rng, names, depth, seen):
    tag = rng.choice(("true", "cmp", "cmp", "and", "or", "not") if depth else ("true", "cmp"))
    seen.add(tag)
    if tag == "true":
        return ("true",)
    if tag == "cmp":
        op = rng.choice(_OPS)
        seen.add(op)
        return ("cmp", op, rng.choice(names), rng.randint(-1, 2))
    if tag == "not":
        return ("not", random_guard(rng, names, depth - 1, seen))
    return (tag, [random_guard(rng, names, depth - 1, seen) for _ in range(rng.randint(0, 2))])


def random_program(rng, seen):
    """A small valid program; ``seen`` collects the features it uses."""
    variables = []
    for i in range(rng.randint(1, 2)):
        lo = rng.randint(-1, 1)
        domain = tuple(range(lo, lo + rng.randint(1, 4)))
        initial = tuple(rng.sample(domain, rng.randint(1, len(domain))))
        if len(initial) > 1:
            seen.add("several initial values")
        variables.append(SharedVariable(f"v{i}", domain, initial))
    names = [v.name for v in variables]
    processes = []
    action = 0
    for pid in range(rng.randint(1, 4)):
        states = tuple(f"q{j}" for j in range(rng.randint(1, 4)))
        transitions = []
        for j in range(rng.randint(1, 4)):
            source, target = states[j % len(states)], rng.choice(states)
            if source == target:
                seen.add("self-loop")
            effects = []
            for var in rng.sample(names, rng.choice((0, 0, 1, len(names)))):
                if rng.random() < 0.5:
                    effects.append(("add", var, rng.choice((-1, 1, 2))))
                else:
                    effects.append(("set", var, rng.randint(-1, 2)))
            guard = random_guard(rng, names, 2, seen) if rng.random() < 0.6 else ("true",)
            transitions.append(Transition(source, target, f"a{action}", guard, tuple(effects)))
            action += 1
        processes.append(Process(f"p{pid}", states, states[0], tuple(transitions)))
    return SharedVariableProgram("random", tuple(variables), tuple(processes))


def test_random_programs_compile_as_the_oracle_says():
    rng = random.Random(20261020)
    seen: set[str] = set()
    dims = set()
    for _ in range(240):
        prog = random_program(rng, seen)
        assert validate_program(prog) == []
        want = oracle(prog, seen)
        assert compiled(prog) == want
        dims |= set(want[0])
    assert seen >= {"true", "cmp", "and", "or", "not", *_OPS}
    assert seen >= {"several initial values", "self-loop", "saturated add"}
    assert dims >= {0, 1, 2, 3}


@pytest.mark.parametrize("name", sorted(_golden_programs()))
def test_golden_programs_compile_as_the_oracle_says(name):
    prog = _golden_programs()[name]
    assert compiled(prog) == oracle(prog)
