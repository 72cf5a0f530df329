import random

import pytest

from hda_lab.hda import assert_valid_hda, validate_hda
from hda_lab.programs import (
    Process,
    SharedVariable,
    SharedVariableProgram,
    Transition,
    eval_guard,
    fire,
    guard_variables,
    initial_states,
    prepared_moves,
    program_to_hda,
    reachable_states,
    state_key,
    validate_program,
)


def two_step_program(effects_a=(), effects_b=(), guard_a=("true",), guard_b=("true",),
                     domain=(0, 1, 2), extra_vars=()):
    """Two one-shot processes over a counter x, for square-formation tests."""
    variables = (SharedVariable("x", domain, (0,)),) + tuple(extra_vars)
    pa = Process("pa", ("s", "t"), "s",
                 (Transition("s", "t", "a", guard=guard_a, effects=effects_a),))
    pb = Process("pb", ("s", "t"), "s",
                 (Transition("s", "t", "b", guard=guard_b, effects=effects_b),))
    return SharedVariableProgram("two", variables, (pa, pb))


def test_eval_guard_forms():
    env = {"x": 2, "y": 0}
    assert eval_guard(("true",), env)
    assert eval_guard(("cmp", "==", "x", 2), env)
    assert not eval_guard(("cmp", "!=", "x", 2), env)
    assert eval_guard(("cmp", "<", "y", 1), env)
    assert eval_guard(("cmp", "<=", "x", 2), env)
    assert not eval_guard(("cmp", ">", "x", 2), env)
    assert eval_guard(("cmp", ">=", "x", 2), env)
    assert eval_guard(("and", [("true",), ("cmp", ">", "x", 0)]), env)
    assert not eval_guard(("and", [("true",), ("cmp", ">", "y", 0)]), env)
    assert eval_guard(("or", [("cmp", ">", "y", 0), ("cmp", ">", "x", 0)]), env)
    assert not eval_guard(("or", []), env)
    assert eval_guard(("and", []), env)
    assert eval_guard(("not", ("cmp", "==", "y", 5)), env)
    with pytest.raises(ValueError):
        eval_guard(("xor", []), env)


def test_guard_variables():
    g = ("and", [("cmp", "==", "a", 1), ("not", ("or", [("cmp", "<", "b", 2), ("true",)]))])
    assert guard_variables(g) == {"a", "b"}
    assert guard_variables(("true",)) == set()


def test_eval_guard_matches_truth_table():
    """Random nested guards against a direct recursive evaluator."""
    rng = random.Random(4021)
    ops = ["==", "!=", "<", "<=", ">", ">="]

    def gen(depth):
        if depth == 0 or rng.random() < 0.4:
            return ("cmp", rng.choice(ops), rng.choice("xy"), rng.randint(-1, 3))
        tag = rng.choice(["and", "or", "not", "true"])
        if tag == "true":
            return ("true",)
        if tag == "not":
            return ("not", gen(depth - 1))
        return (tag, [gen(depth - 1) for _ in range(rng.randint(0, 3))])

    def direct(g, env):
        if g[0] == "true":
            return True
        if g[0] == "cmp":
            a, b = env[g[2]], g[3]
            return {"==": a == b, "!=": a != b, "<": a < b,
                    "<=": a <= b, ">": a > b, ">=": a >= b}[g[1]]
        if g[0] == "and":
            return all(direct(s, env) for s in g[1])
        if g[0] == "or":
            return any(direct(s, env) for s in g[1])
        return not direct(g[1], env)

    for _ in range(2000):
        g = gen(3)
        env = {"x": rng.randint(-1, 3), "y": rng.randint(-1, 3)}
        assert eval_guard(g, env) == direct(g, env)


def test_validate_program_flags_each_defect():
    v = SharedVariable("x", (0, 1), (0,))
    ok = Process("p", ("s",), "s", (Transition("s", "s", "a"),))
    assert validate_program(SharedVariableProgram("g", (v,), (ok,))) == []

    bad_vars = SharedVariableProgram(
        "g",
        (
            SharedVariable("x", (0, 1), (0,)),
            SharedVariable("x", (), ()),
            SharedVariable("y", (1, 1), (2,)),
        ),
        (ok,),
    )
    msgs = validate_program(bad_vars)
    assert "duplicate variable names" in msgs
    assert "variable x: empty domain" in msgs
    assert "variable x: no initial value" in msgs
    assert "variable y: repeated domain values" in msgs
    assert "variable y: initial value 2 outside domain" in msgs

    bad_proc = SharedVariableProgram(
        "g",
        (v,),
        (
            Process("p", ("s", "s"), "q", (
                Transition("s", "u", "a"),
                Transition("s", "s", "b", guard=("cmp", "==", "z", 1)),
                Transition("s", "s", "c", guard=("frob",)),
                Transition("s", "s", "d", effects=(("mul", "x", 2),)),
                Transition("s", "s", "e", effects=(("set", "z", 1),)),
                Transition("s", "s", "f", effects=(("set", "x", 1), ("add", "x", 1))),
            )),
            Process("p", ("s",), "s", (Transition("s", "s", "a"),)),
        ),
    )
    msgs = validate_program(bad_proc)
    assert "duplicate process names" in msgs
    assert "process p: repeated state names" in msgs
    assert "process p: start state 'q' undeclared" in msgs
    assert "process p, action a: endpoint state undeclared" in msgs
    assert "process p, action b: guard reads unknown variables ['z']" in msgs
    assert "process p, action c: malformed guard" in msgs
    assert "process p, action d: malformed effect ('mul', 'x', 2)" in msgs
    assert "process p, action e: effect writes unknown variable 'z'" in msgs
    assert "process p, action f: two effects write 'x'" in msgs
    assert "action names must be distinct across the whole program" in msgs


def move_of(prog, action):
    """The prepared move of an action."""
    moves = [m for by_source in prepared_moves(prog) for ms in by_source.values() for m in ms]
    return next(m for m in moves if m[0] == "!" + action)


def test_fire_semantics():
    prog = two_step_program(
        effects_a=(("add", "x", 1), ("set", "y", 5)),
        guard_a=("cmp", "<", "x", 2),
        extra_vars=(SharedVariable("y", (0, 5), (0,)),),
    )
    a = move_of(prog, "a")
    assert fire(a, (("s", "s"), (0, 0))) == (("t", "s"), (1, 5))
    # guard failure
    assert fire(a, (("s", "s"), (2, 0))) is None
    # update leaving the domain disables the step rather than clamping
    prog2 = two_step_program(effects_a=(("add", "x", 1),), domain=(0, 1))
    assert fire(move_of(prog2, "a"), (("s", "s"), (1,))) is None
    prog3 = two_step_program(effects_a=(("set", "x", 3),))
    assert fire(move_of(prog3, "a"), (("s", "s"), (0,))) is None


def test_moves_are_prepared_by_source_state():
    # each move is offered only from its source state, in declaration order
    prog = SharedVariableProgram(
        "src",
        (SharedVariable("x", (0, 1), (0,)),),
        (Process("p", ("s", "t"), "s", (
            Transition("s", "t", "a"),
            Transition("t", "s", "b", guard=("cmp", "==", "x", 0)),
            Transition("s", "s", "c", guard=("and", [])),
            Transition("s", "t", "d", guard=("or", [])),
        )),),
    )
    [by_source] = prepared_moves(prog)
    assert {src: [m[0] for m in ms] for src, ms in by_source.items()} == {
        "s": ["!a", "!c", "!d"],
        "t": ["!b"],
    }
    # a guard that reads no variable and holds is dropped; one that fails stays
    assert move_of(prog, "a")[3] is None and move_of(prog, "c")[3] is None
    assert fire(move_of(prog, "d"), (("s",), (0,))) is None
    assert fire(move_of(prog, "b"), (("t",), (0,))) == (("s",), (0,))
    assert fire(move_of(prog, "b"), (("t",), (1,))) is None


def test_effects_read_the_old_values():
    # both effects see x=3: y gets the old value's double via add on y=0
    prog = SharedVariableProgram(
        "par",
        (SharedVariable("x", tuple(range(9)), (3,)), SharedVariable("y", tuple(range(9)), (0,))),
        (
            Process("p", ("s", "t"), "s", (
                Transition("s", "t", "a", effects=(("set", "x", 0), ("add", "y", 4))),
            )),
        ),
    )
    assert fire(move_of(prog, "a"), (("s",), (3, 0))) == (("t",), (0, 4))


def test_initial_states_product_and_keys():
    prog = SharedVariableProgram(
        "init",
        (SharedVariable("a", (0, 1), (0, 1)), SharedVariable("b", (5, 6), (6,))),
        (Process("p", ("s",), "s", (Transition("s", "s", "go"),)),),
    )
    starts = initial_states(prog)
    assert starts == [(("s",), (0, 6)), (("s",), (1, 6))]
    assert state_key(starts[0]) == "s|0,6"
    assert state_key((("u", "v"), (1, 2, 3))) == "u,v|1,2,3"


def test_reachable_states_respects_guards():
    prog = two_step_program(effects_a=(("add", "x", 1),), domain=(0, 1),
                            guard_b=("cmp", "==", "x", 1))
    seen = reachable_states(prog)
    # b can only ever fire after a has bumped x
    assert list(seen.items()) == [
        ("s,s|0", {"!a": "t,s|1"}),
        ("t,s|1", {"!b": "t,t|1"}),
        ("t,t|1", {}),
    ]


def test_independent_steps_make_a_square():
    prog = two_step_program(
        effects_a=(("set", "y", 1),),
        effects_b=(("set", "z", 1),),
        extra_vars=(SharedVariable("y", (0, 1), (0,)), SharedVariable("z", (0, 1), (0,))),
    )
    h = program_to_hda(prog)
    assert validate_hda(h) == []
    P = h.complex
    assert [P.size(n) for n in range(3)] == [4, 4, 1]
    sq = P.cells(2)[0]
    # direction 1 is the lower process id, direction 2 the higher
    assert h.direction_word((2, sq), 1) == ("a",)
    assert h.direction_word((2, sq), 2) == ("b",)


def test_conflicting_guards_leave_a_hollow_corner():
    # both steps bump x with domain 0..1: after either, the other is disabled
    prog = two_step_program(effects_a=(("add", "x", 1),), effects_b=(("add", "x", 1),),
                            domain=(0, 1))
    h = program_to_hda(prog)
    P = h.complex
    assert P.size(0) == 3
    assert P.size(1) == 2
    assert P.size(2) == 0


def test_noncommuting_writes_leave_the_square_empty():
    # both orders run, but the end states differ, so no square is filled
    prog = two_step_program(effects_a=(("set", "x", 1),), effects_b=(("set", "x", 2),))
    h = program_to_hda(prog)
    P = h.complex
    assert P.size(0) == 5
    assert P.size(1) == 4
    assert P.size(2) == 0
    assert validate_hda(h) == []


def test_agreeing_writes_fill_the_square():
    prog = two_step_program(effects_a=(("set", "x", 1),), effects_b=(("set", "x", 1),))
    h = program_to_hda(prog)
    assert [h.complex.size(n) for n in range(3)] == [4, 4, 1]


def test_three_independent_steps_make_a_cube():
    variables = tuple(SharedVariable(f"v{i}", (0, 1), (0,)) for i in range(3))
    procs = tuple(
        Process(f"p{i}", ("s", "t"), "s",
                (Transition("s", "t", f"m{i}", effects=(("set", f"v{i}", 1),)),))
        for i in range(3)
    )
    prog = SharedVariableProgram("cube", variables, procs)
    h = program_to_hda(prog)
    assert validate_hda(h) == []
    assert [h.complex.size(n) for n in range(4)] == [8, 12, 6, 1]
    cube = h.complex.cells(3)[0]
    assert [h.direction_word((3, cube), i) for i in (1, 2, 3)] == [("m0",), ("m1",), ("m2",)]


def test_partial_independence_mixed_dimensions():
    # m0/m1 conflict on x, both commute with m2; two squares, no 3-cube
    variables = (SharedVariable("x", (0, 1), (0,)), SharedVariable("y", (0, 1), (0,)))
    procs = (
        Process("p0", ("s", "t"), "s",
                (Transition("s", "t", "m0", effects=(("add", "x", 1),)),)),
        Process("p1", ("s", "t"), "s",
                (Transition("s", "t", "m1", effects=(("add", "x", 1),)),)),
        Process("p2", ("s", "t"), "s",
                (Transition("s", "t", "m2", effects=(("set", "y", 1),)),)),
    )
    prog = SharedVariableProgram("mixed", variables, procs)
    h = program_to_hda(prog)
    assert validate_hda(h) == []
    P = h.complex
    assert P.size(3) == 0
    squares = set()
    for sq in P.cells(2):
        words = (h.direction_word((2, sq), 1)[0], h.direction_word((2, sq), 2)[0])
        squares.add(words)
    assert squares == {("m0", "m2"), ("m1", "m2")}


def test_compiled_labels_and_markings():
    prog = two_step_program()
    h = program_to_hda(prog)
    start = {key for dim, key in h.initial}
    assert h.initial == h.final
    assert start == {"s,s|0"}
    assert sorted(h.labels[e] for e in h.complex.cells(1)) == [("a",), ("a",), ("b",), ("b",)]
    assert list(h.alphabet.letters) == ["a", "b"]


def test_program_to_hda_rejects_invalid_programs():
    bad = SharedVariableProgram(
        "bad", (), (Process("p", ("s",), "s", (Transition("s", "s", "a"),)),
                    Process("q", ("s",), "s", (Transition("s", "s", "a"),))),
    )
    with pytest.raises(ValueError, match="invalid program"):
        program_to_hda(bad)


def test_compilation_is_insensitive_to_transition_order():
    from hda_lab.models import dining_philosophers

    prog = dining_philosophers(3)
    shuffled = SharedVariableProgram(
        prog.name,
        prog.variables,
        tuple(
            Process(p.name, p.states, p.start, tuple(reversed(p.transitions)))
            for p in prog.processes
        ),
    )
    h1 = program_to_hda(prog)
    h2 = program_to_hda(shuffled)
    for n in range(5):
        assert sorted(h1.complex.cells(n)) == sorted(h2.complex.cells(n))
        for key in h1.complex.cells(n) if n else ():
            assert h1.complex.face_keys((n, key)) == h2.complex.face_keys((n, key))
    assert h1.labels == h2.labels
    assert h1.initial == h2.initial


def test_self_loop_process_stays_finite():
    prog = SharedVariableProgram(
        "loop",
        (SharedVariable("x", (0, 1), (0,)),),
        (Process("p", ("s",), "s", (Transition("s", "s", "tick"),)),),
    )
    h = program_to_hda(prog)
    assert_valid_hda(h)
    assert [h.complex.size(n) for n in range(2)] == [1, 1]
    e = h.complex.cells(1)[0]
    assert h.complex.face((1, e), 0, 1) == h.complex.face((1, e), 1, 1)


# -- golden compiles ---------------------------------------------------------------


def shuffled_butler(n: int, seed: str) -> SharedVariableProgram:
    """Philosophers plus a ``seats`` counter admitting n-1 diners, reordered.

    A diner takes a seat with its left stick and gives it back with its
    right one.  Processes, variables and each process's transitions are
    declared in a seeded order, so discovery order and key tails differ
    from the plain table's.
    """
    from hda_lab.models import dining_philosophers

    rng = random.Random(seed)
    seat = {"pick_l": 1, "put_r": -1}
    processes = []
    for p in dining_philosophers(n).processes:
        transitions = []
        for t in p.transitions:
            delta = seat.get(t.action.rsplit("_", 1)[0])
            effects = t.effects + ((("add", "seats", delta),) if delta else ())
            transitions.append(Transition(t.source, t.target, t.action, t.guard, effects))
        rng.shuffle(transitions)
        processes.append(Process(p.name, p.states, p.start, tuple(transitions)))
    rng.shuffle(processes)
    variables = list(dining_philosophers(n).variables)
    variables.append(SharedVariable("seats", tuple(range(n)), (0,)))
    rng.shuffle(variables)
    return SharedVariableProgram(f"butler{n}", tuple(variables), tuple(processes))


def _golden_programs():
    from hda_lab.models import dining_philosophers, lock_counter, peterson

    return {
        "peterson": peterson(),
        "lock_counter": lock_counter(),
        "philosophers4": dining_philosophers(4),
        "butler4": shuffled_butler(4, "butler4"),
        "philosophers5": dining_philosophers(5),
        "butler5": shuffled_butler(5, "butler5"),
    }


# SHA-256 of the canonical JSON of each compiled model (one line), of its
# cells in memory order (the JSON sorts each dimension's ids; the chain bases
# use this order), and of the file translated back to one record per cube
# with its faces as ids: the bytes the writer gave before it named faces by
# position.  Any change to the compiler's cell order, keys, faces or labels
# shows in the last two; a change to the file's layout alone, in the first.
GOLDEN_COMPILES = {
    "peterson": (
        "ae7ffc02c98760f8bd72606cb4abbdfb56455425878f1ad036edda50b33cbcef",
        "cb6cc446b81cd8d9973d898923d4e8fc69ac065f20d1f4498480377de9252e17",
        "54682504c0b0ad0659361c3717b6691337a0f37a7b11a95cc400bcb946c60e72",
    ),
    "lock_counter": (
        "78454ecc9120d1d8afcc320340f4cb36d327296a61f77a37158608aed53eb93b",
        "b767ed6d9caaaa78a713cb4401f21179990189dd6bc3764ddbf3f06d1ab992bf",
        "fbede37560cf8ded5b913dc6157c007443f24892f06a3f414511c066d95ed185",
    ),
    "philosophers4": (
        "61324f763f2e81d5de921e95601e34b0cc49201e3bac6776e5a5690f8b1ad52f",
        "c35ab4d13ae36e334940ad34e603a18faca0e31ec94a3bf1830fd37f6fa8c6c0",
        "5be9b87ed41de8cd8b7098392eac4b11a2e050fed7a0ee54310c227f8f548082",
    ),
    "butler4": (
        "ae3622b8d3c765ad19fae738bae45f1e2cd9a78d6b08df57c9edd6c7960a132e",
        "de9d49bf65b6b2b09b528648a960c52943a95dd0ddcef4660b3c4def80ab0b3d",
        "a2f9f3f23493a893dfff2710638c9145fd3bb6d0328d283378f516848717ec27",
    ),
    "philosophers5": (
        "c8c7c90b7dd468d5b4cc53de1fa903e34642523e1df0e04c872905659c00d9f2",
        "314ac693b2faff8c26ca540f4748ef88ccfd540895543662017ae251d5040291",
        "e6014fba632b5f3e118e7da4268fa94f2f2fe5ae94c0b283219a20e265842fc8",
    ),
    "butler5": (
        "7a3a57c70f2a25e8b7812aa550bba297553c79c11440e6db09d6e39635e00346",
        "43e0abc87e1167c91618460f9ad563d88632117615a30e7320dec096c0fa12fe",
        "b6855651c5cde78a1016d7d2d70a58ddb9ad1f57cc711a02fc7c53857771aedf",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMPILES))
def test_compiled_model_bytes_are_pinned(name):
    import json
    from hashlib import sha256

    from conftest import id_form
    from hda_lab.fileformats import canonical_json, hda_to_json

    h = program_to_hda(_golden_programs()[name])
    P = h.complex
    text = canonical_json(hda_to_json(h))
    order = repr([P.cells(n) for n in P.dims()])
    by_id = canonical_json(id_form(json.loads(text)))
    # The content first, then the bytes of the file.
    assert sha256(order.encode()).hexdigest() == GOLDEN_COMPILES[name][1]
    assert sha256(by_id.encode()).hexdigest() == GOLDEN_COMPILES[name][2]
    assert sha256(text.encode()).hexdigest() == GOLDEN_COMPILES[name][0]


@pytest.mark.parametrize("name", sorted(GOLDEN_COMPILES))
def test_compiled_edges_share_one_word_tuple_per_action(name):
    prog = _golden_programs()[name]
    h = program_to_hda(prog)
    words = h.labels.values()
    actions = {t.action for p in prog.processes for t in p.transitions}
    assert len(words) > len(actions) >= len(set(words))
    assert len({id(w) for w in words}) == len(set(words))


@pytest.mark.parametrize("name", sorted(GOLDEN_COMPILES))
def test_each_move_fires_once_per_compile(name, monkeypatch):
    import hda_lab.programs

    prog = _golden_programs()[name]
    calls = []

    def counting(move, state):
        calls.append((state, move[0]))
        return fire(move, state)

    monkeypatch.setattr(hda_lab.programs, "fire", counting)
    h = program_to_hda(prog)
    # One call per reachable state and transition from its process's local
    # state there; the vertex key spells the local states before its "|".
    expected = 0
    for key in h.complex.cells(0):
        locs = key.split("|")[0].split(",")
        for p, local in zip(prog.processes, locs):
            expected += sum(t.source == local for t in p.transitions)
    assert len(calls) == expected
    assert len(set(calls)) == len(calls)
