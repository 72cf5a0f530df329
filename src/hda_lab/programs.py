"""Shared-variable programs compiled into labeled automata.

A program is a set of sequential processes over a pool of bounded integer
variables.  Each process is a small state machine whose transitions carry an
action name, a guard over the variables, and a parallel update.  The compiled
automaton has one vertex per reachable global state and one n-cube for every
way n different processes can be mid-step concurrently: a square appears
exactly when the two steps are enabled in both orders and their effects
commute on the shared variables, and a higher cube appears exactly when all
its faces do, which reduces to the pairwise checks.

Guards are nested tuples:

    ("true",)
    ("cmp", op, var, value)        op in ==, !=, <, <=, >, >=
    ("and", [g, ...]) / ("or", [g, ...]) / ("not", g)

Effects are ("set", var, value) or ("add", var, delta), applied in parallel
against the old values; a step whose update leaves any variable outside its
domain is simply not enabled, which is how bounded counters saturate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product

from .exterior import Alphabet
from .hda import Hda
from .precubical import Key, PrecubicalSet

Guard = tuple
Effect = tuple[str, str, int]

_CMP = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def eval_guard(guard: Guard, env: dict[str, int]) -> bool:
    tag = guard[0]
    if tag == "true":
        return True
    if tag == "cmp":
        _, op, var, value = guard
        return _CMP[op](env[var], value)
    if tag == "and":
        return all(eval_guard(g, env) for g in guard[1])
    if tag == "or":
        return any(eval_guard(g, env) for g in guard[1])
    if tag == "not":
        return not eval_guard(guard[1], env)
    raise ValueError(f"unknown guard tag {tag!r}")


def _is_integer(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def guard_variables(guard: Guard) -> set[str]:
    """The variables a guard reads; ValueError if the guard is malformed."""
    tag = guard[0]
    if tag == "true":
        return set()
    if tag == "cmp":
        _, op, var, value = guard
        if op not in _CMP or not _is_integer(value):
            raise ValueError(f"bad comparison {guard!r}")
        return {var}
    if tag in ("and", "or"):
        out: set[str] = set()
        for g in guard[1]:
            out |= guard_variables(g)
        return out
    if tag == "not":
        return guard_variables(guard[1])
    raise ValueError(f"unknown guard tag {tag!r}")


@dataclass(frozen=True)
class SharedVariable:
    """A bounded integer variable with one or more allowed start values."""

    name: str
    domain: tuple[int, ...]
    initial: tuple[int, ...]


@dataclass(frozen=True)
class Transition:
    source: str
    target: str
    action: str
    guard: Guard = ("true",)
    effects: tuple[Effect, ...] = ()


@dataclass(frozen=True)
class Process:
    name: str
    states: tuple[str, ...]
    start: str
    transitions: tuple[Transition, ...]


@dataclass(frozen=True)
class SharedVariableProgram:
    name: str
    variables: tuple[SharedVariable, ...]
    processes: tuple[Process, ...]


def validate_program(prog: SharedVariableProgram) -> list[str]:
    """Well-formedness defects as human-readable messages."""
    out = []
    var_names = [v.name for v in prog.variables]
    if len(set(var_names)) != len(var_names):
        out.append("duplicate variable names")
    for v in prog.variables:
        if not all(_is_integer(x) for x in v.domain + v.initial):
            out.append(f"variable {v.name}: domain and initial values must be integers")
            continue
        if not v.domain:
            out.append(f"variable {v.name}: empty domain")
        if len(set(v.domain)) != len(v.domain):
            out.append(f"variable {v.name}: repeated domain values")
        if not v.initial:
            out.append(f"variable {v.name}: no initial value")
        for x in v.initial:
            if x not in v.domain:
                out.append(f"variable {v.name}: initial value {x} outside domain")
    proc_names = [p.name for p in prog.processes]
    if len(set(proc_names)) != len(proc_names):
        out.append("duplicate process names")
    known = set(var_names)
    actions = []
    for p in prog.processes:
        if not all(isinstance(s, str) for s in p.states):
            out.append(f"process {p.name}: state names must be strings")
            continue
        if any("," in s or "|" in s for s in p.states):
            out.append(f"process {p.name}: state names must not contain ',' or '|'")
        if len(set(p.states)) != len(p.states):
            out.append(f"process {p.name}: repeated state names")
        if p.start not in p.states:
            out.append(f"process {p.name}: start state {p.start!r} undeclared")
        for t in p.transitions:
            actions.append(t.action)
            where = f"process {p.name}, action {t.action}"
            if not isinstance(t.action, str) or "!" in t.action:
                out.append(f"{where}: action names must be strings without '!'")
            if t.source not in p.states or t.target not in p.states:
                out.append(f"{where}: endpoint state undeclared")
            try:
                missing = guard_variables(t.guard) - known
            except (ValueError, IndexError, TypeError):
                out.append(f"{where}: malformed guard")
                missing = set()
            if missing:
                out.append(f"{where}: guard reads unknown variables {sorted(missing)}")
            touched = set()
            for eff in t.effects:
                if (
                    len(eff) != 3
                    or eff[0] not in ("set", "add")
                    or not isinstance(eff[1], str)
                    or not _is_integer(eff[2])
                ):
                    out.append(f"{where}: malformed effect {eff!r}")
                    continue
                _, var, _ = eff
                if var not in known:
                    out.append(f"{where}: effect writes unknown variable {var!r}")
                if var in touched:
                    out.append(f"{where}: two effects write {var!r}")
                touched.add(var)
    if len(set(actions)) != len(actions):
        out.append("action names must be distinct across the whole program")
    return out


def assert_valid_program(prog: SharedVariableProgram) -> None:
    bad = validate_program(prog)
    if bad:
        raise ValueError("invalid program:\n" + "\n".join(bad))


# A global state is (local states by process, variable values in declaration
# order).  Both tuples, so states are hashable and directly comparable.
State = tuple[tuple[str, ...], tuple[int, ...]]


def initial_states(prog: SharedVariableProgram) -> list[State]:
    locs = tuple(p.start for p in prog.processes)
    choices = [v.initial for v in prog.variables]
    return [(locs, vals) for vals in product(*choices)]


def fire(prog: SharedVariableProgram, state: State, pid: int, t: Transition) -> State | None:
    """The successor state, or None when the step is not enabled."""
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
            return None
    locs2 = locs[:pid] + (t.target,) + locs[pid + 1 :]
    return (locs2, tuple(new[v.name] for v in prog.variables))


def state_key(state: State) -> str:
    # Distinct: validate_program keeps the separators out of state names.
    locs, vals = state
    return ",".join(locs) + "|" + ",".join(str(x) for x in vals)


def reachable_states(prog: SharedVariableProgram) -> dict[str, State]:
    """All states reachable from the initial ones, keyed, in discovery order."""
    seen: dict[str, State] = {}
    queue: deque[State] = deque()
    for s in initial_states(prog):
        k = state_key(s)
        if k not in seen:
            seen[k] = s
            queue.append(s)
    while queue:
        s = queue.popleft()
        for pid, proc in enumerate(prog.processes):
            for t in proc.transitions:
                s2 = fire(prog, s, pid, t)
                if s2 is None:
                    continue
                k2 = state_key(s2)
                if k2 not in seen:
                    seen[k2] = s2
                    queue.append(s2)
    return seen


def program_to_hda(prog: SharedVariableProgram) -> Hda:
    """Compile to a labeled automaton; see the module docstring for the rules."""
    assert_valid_program(prog)
    states = reachable_states(prog)

    # A move is tagged "!action"; action names are unique per program, so
    # the tag names the move.  One successor table per state: the enabled
    # moves as (pid, tag) in process and declaration order, and each
    # successor's key by tag.
    enabled: dict[str, list[tuple[int, str]]] = {}
    succ: dict[str, dict[str, str]] = {}
    for k, s in states.items():
        moves_k = enabled[k] = []
        succ_k = succ[k] = {}
        for pid, proc in enumerate(prog.processes):
            for t in proc.transitions:
                s2 = fire(prog, s, pid, t)
                if s2 is not None:
                    tag = "!" + t.action
                    moves_k.append((pid, tag))
                    succ_k[tag] = state_key(s2)

    cells: dict[int, list[Key]] = {0: list(states)}
    faces: dict[tuple[int, Key], tuple[tuple[Key, ...], tuple[Key, ...]]] = {}
    labels: dict[Key, tuple[str, ...]] = {}

    # An (n-1)-cube is a base state plus moves sorted by process id, all
    # enabled at the base, so the successor table holds each corner one step
    # away.  Its key is the base key followed by the move tags; this table
    # maps the key to (base key, last process id, tags).
    current: dict[str, tuple[str, int, tuple[str, ...]]] = {
        k: (k, -1, ()) for k in states
    }

    n = 1
    while current:
        following: dict[str, tuple[str, int, tuple[str, ...]]] = {}
        keys_n: list[Key] = []
        for key, (base, top_pid, tags) in current.items():
            succ_base = succ[base]
            for pid, tag in enabled[base]:
                if pid <= top_pid:
                    continue
                cand = tags + (tag,)
                face_d0 = []
                face_d1 = []
                ends = set()
                for i in range(n):
                    rest = cand[:i] + cand[i + 1 :]
                    tail = "".join(rest)
                    mid = succ_base[cand[i]]
                    k0 = base + tail
                    k1 = mid + tail
                    if n > 1 and (k0 not in current or k1 not in current):
                        break
                    face_d0.append(k0)
                    face_d1.append(k1)
                    if n == 2:
                        far = succ[mid].get(rest[0])
                        if far is None:
                            break
                        ends.add(far)
                else:
                    if n == 2 and len(ends) != 1:
                        continue
                    ck = key + tag
                    following[ck] = (base, pid, cand)
                    keys_n.append(ck)
                    faces[(n, ck)] = (tuple(face_d0), tuple(face_d1))
                    if n == 1:
                        labels[ck] = (tag[1:],)
        if keys_n:
            cells[n] = keys_n
        current = following
        n += 1

    letters = [t.action for p in prog.processes for t in p.transitions]
    start = frozenset((0, state_key(s)) for s in initial_states(prog))
    return Hda(
        complex=PrecubicalSet(cells, faces),
        alphabet=Alphabet(dict.fromkeys(letters)),
        labels=labels,
        initial=start,
        final=start,
    )
