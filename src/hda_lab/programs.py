"""Shared-variable programs compiled into labeled automata.

A program is a set of sequential processes over a pool of bounded integer
variables.  Each process is a small state machine whose transitions carry an
action name, a guard over the variables, and a parallel update.  The compiled
automaton has one vertex per reachable global state and one n-cube for every
way n different processes can be mid-step concurrently: a square appears
exactly when the two steps are enabled in both orders and their effects
commute on the shared variables, and a higher cube appears exactly when all
its faces do, which reduces to the pairwise checks: every corner is reached
by every order of the steps, and at one state.

Exploration fires, at each state, only the prepared moves from each
process's local state.  Filling finds faces by position: the faces of a
cube c extended by a move t are the t-extensions of c's faces, plus c and
its copy one t-step on; a string key is built once per kept cube.

Guards are nested tuples:

    ("true",)
    ("cmp", op, var, value)        op in ==, !=, <, <=, >, >=
    ("and", [g, ...]) / ("or", [g, ...]) / ("not", g)

Effects are ("set", var, value) or ("add", var, delta), applied in parallel
against the old values; a step whose update leaves any variable outside its
domain is simply not enabled, which is how bounded counters saturate.

The documents of program files are encoded at the end of this module, so
that only the commands that read or compile programs compile the codec.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product

from .fileformats import FileFormatError, _want
from .hda import Alphabet, Hda
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


# A move: tag "!action", process id, target, guard (None if it reads no
# variable and holds), the names it reads values under (none if it reads
# none), and effects as (variable slot, is a "set", amount, domain).
Move = tuple


def prepared_moves(prog: SharedVariableProgram) -> list[dict[str, list[Move]]]:
    """Per process, each local state's moves in declaration order."""
    names = tuple(v.name for v in prog.variables)
    slot = {name: i for i, name in enumerate(names)}
    domain = {v.name: frozenset(v.domain) for v in prog.variables}
    out: list[dict[str, list[Move]]] = [{} for _ in prog.processes]
    for pid, p in enumerate(prog.processes):
        for t in p.transitions:
            reads = names if guard_variables(t.guard) else ()
            guard = None if not reads and eval_guard(t.guard, {}) else t.guard
            effects = tuple((slot[v], op == "set", x, domain[v]) for op, v, x in t.effects)
            move = ("!" + t.action, pid, t.target, guard, reads, effects)
            out[pid].setdefault(t.source, []).append(move)
    return out


def fire(move: Move, state: State) -> State | None:
    """The successor by a move from its process's local state in ``state``,
    or None when the guard fails or an update leaves its domain."""
    _, pid, target, guard, reads, effects = move
    locs, vals = state
    if guard is not None and not eval_guard(guard, dict(zip(reads, vals))):
        return None
    if effects:
        new = list(vals)
        for slot, is_set, amount, domain in effects:
            x = amount if is_set else vals[slot] + amount
            if x not in domain:
                return None
            new[slot] = x
        vals = tuple(new)
    return (locs[:pid] + (target,) + locs[pid + 1 :], vals)


def state_key(state: State) -> str:
    # Distinct: validate_program keeps the separators out of state names.
    locs, vals = state
    return ",".join(locs) + "|" + ",".join(str(x) for x in vals)


def reachable_states(prog: SharedVariableProgram) -> dict[str, dict[str, str]]:
    """Every state reachable from the initial ones, keyed, in discovery order.

    Each key maps to its successor table: the enabled moves in process and
    declaration order, each tagged "!action", to the successor's key.  Action
    names are unique per program, so the tag names the move.  Only the moves
    from each process's local state are fired, each once per state.
    """
    moves = prepared_moves(prog)
    keys = {s: state_key(s) for s in initial_states(prog)}
    succ: dict[str, dict[str, str]] = {k: {} for k in keys.values()}
    queue = deque(zip(keys, succ.values()))
    while queue:
        s, table = queue.popleft()
        for by_source, local in zip(moves, s[0]):
            for move in by_source.get(local, ()):
                s2 = fire(move, s)
                if s2 is None:
                    continue
                k = keys.get(s2)
                if k is None:
                    keys[s2] = k = state_key(s2)
                    queue.append((s2, succ.setdefault(k, {})))
                table[move[0]] = k
    return succ


def program_to_hda(prog: SharedVariableProgram) -> Hda:
    """Compile to a labeled automaton; see the module docstring for the rules."""
    assert_valid_program(prog)
    succ = reachable_states(prog)
    pid_of = {"!" + t.action: pid for pid, p in enumerate(prog.processes) for t in p.transitions}
    vertex = {k: pos for pos, k in enumerate(succ)}
    # Each vertex's moves in table order, as (tag, process id, target position).
    enabled = [
        [(tag, pid_of[tag], vertex[k]) for tag, k in table.items()] for table in succ.values()
    ]

    labels: dict[Key, tuple[str, ...]] = {}
    # An (n-1)-cube is a base vertex plus moves sorted by process id, all
    # enabled at the base.  Its key is the base key followed by the move
    # tags.  Per dimension, ``current`` maps each key to its position,
    # ``cubes`` holds (base position, last process id, last tag) at that
    # position, and ``up`` a dict from each move tag to the position of
    # the cube extended by that move, filled as the next dimension is built;
    # a cube that gains no extension shares one empty dict, never written.
    index: dict[int, dict[Key, int]] = {0: vertex}
    faces: dict[int, list[tuple[int, ...]]] = {}
    current = vertex
    cubes: list[tuple[int, int, str]] = [(v, -1, "") for v in range(len(vertex))]
    empty: dict[str, int] = {}
    up: list[dict[str, int]] = [empty] * len(cubes)
    up_below: list[dict[str, int]] = []
    own_faces: list[tuple[int, ...]] = []

    n = 1
    while cubes:
        following: dict[Key, int] = {}
        cubes_n: list[tuple[int, int, str]] = []
        faces_n: list[tuple[int, ...]] = []
        for (key, pos), (base, top_pid, last) in zip(current.items(), cubes):
            own = own_faces[pos] if n > 1 else ()
            ext = empty
            for tag, pid, end in enabled[base]:
                if pid <= top_pid:
                    continue
                if n > 1:
                    # Below direction n, the new cube's faces are this
                    # cube's faces extended by the move.  In direction n
                    # they are this cube and its copy one move on: extend
                    # the face without this cube's last move by the move,
                    # and that cube's far side by the last move.
                    moved = [up_below[f].get(tag) for f in own]
                    if None in moved:
                        continue
                    far = up_below[own_faces[moved[n - 2]][-1]].get(last)
                    if far is None or n == 2 and own_faces[moved[1]][1] != own_faces[far][1]:
                        continue
                    face = (*moved[: n - 1], pos, *moved[n - 1 :], far)
                else:
                    face = (pos, end)
                if ext is empty:
                    ext = up[pos] = {}
                ext[tag] = following[key + tag] = len(cubes_n)
                cubes_n.append((base, pid, tag))
                faces_n.append(face)
        if n == 1:
            word = {tag: (tag[1:],) for tag in pid_of}  # one tuple per action
            labels = {ck: word[tag] for ck, (_, _, tag) in zip(following, cubes_n)}
        if cubes_n:
            index[n] = following
            faces[n] = faces_n
        current, cubes, own_faces = following, cubes_n, faces_n
        up_below, up = up, [empty] * len(cubes_n)
        n += 1

    letters = [t.action for p in prog.processes for t in p.transitions]
    start = frozenset((0, state_key(s)) for s in initial_states(prog))
    return Hda(
        complex=PrecubicalSet.from_positions(index, faces),
        alphabet=Alphabet(dict.fromkeys(letters)),
        labels=labels,
        initial=start,
        final=start,
    )


# -- program files ---------------------------------------------------------------
# The documents of program files; ``fileformats`` reads and writes the files.


def _guard_to_json(guard: Guard):
    tag = guard[0]
    if tag == "true":
        return ["true"]
    if tag == "cmp":
        return ["cmp", guard[1], guard[2], guard[3]]
    if tag in ("and", "or"):
        return [tag, [_guard_to_json(g) for g in guard[1]]]
    if tag == "not":
        return ["not", _guard_to_json(guard[1])]
    raise FileFormatError(f"cannot render guard {guard!r}")


def _guard_from_json(node, where: str) -> Guard:
    if not isinstance(node, list) or not node or not isinstance(node[0], str):
        raise FileFormatError(f"{where}: bad guard {node!r}")
    tag = node[0]
    if tag == "true":
        return ("true",)
    if tag == "cmp":
        if len(node) != 4:
            raise FileFormatError(f"{where}: cmp guard needs op, variable, value")
        return ("cmp", node[1], node[2], node[3])
    if tag in ("and", "or"):
        if len(node) != 2 or not isinstance(node[1], list):
            raise FileFormatError(f"{where}: {tag} guard needs a list")
        return (tag, [_guard_from_json(g, where) for g in node[1]])
    if tag == "not":
        if len(node) != 2:
            raise FileFormatError(f"{where}: not guard needs one operand")
        return ("not", _guard_from_json(node[1], where))
    raise FileFormatError(f"{where}: unknown guard tag {tag!r}")


def program_to_json(prog: SharedVariableProgram) -> dict:
    return {
        "name": prog.name,
        "variables": [
            {"name": v.name, "domain": list(v.domain), "initial": list(v.initial)}
            for v in prog.variables
        ],
        "processes": [
            {
                "name": p.name,
                "states": list(p.states),
                "start": p.start,
                "transitions": [
                    {
                        "from": t.source,
                        "to": t.target,
                        "action": t.action,
                        "guard": _guard_to_json(t.guard),
                        "effects": [list(e) for e in t.effects],
                    }
                    for t in p.transitions
                ],
            }
            for p in prog.processes
        ],
    }


def program_from_json(doc: dict) -> SharedVariableProgram:
    name = _want(doc, "name", str, "program")
    variables = []
    for pos, v in enumerate(_want(doc, "variables", list, "program")):
        where = f"program.variables[{pos}]"
        initial = _want(v, "initial", (int, list), where)
        if isinstance(initial, int):
            initial = [initial]
        variables.append(
            SharedVariable(
                _want(v, "name", str, where),
                tuple(_want(v, "domain", list, where)),
                tuple(initial),
            )
        )
    processes = []
    for pos, p in enumerate(_want(doc, "processes", list, "program")):
        where = f"program.processes[{pos}]"
        transitions = []
        for tpos, t in enumerate(_want(p, "transitions", list, where)):
            twhere = f"{where}.transitions[{tpos}]"
            guard = ("true",)
            if "guard" in t:
                guard = _guard_from_json(t["guard"], twhere)
            effects = []
            for e in t.get("effects", []):
                if not (isinstance(e, list) and len(e) == 3):
                    raise FileFormatError(f"{twhere}: bad effect {e!r}")
                effects.append((e[0], e[1], e[2]))
            transitions.append(
                Transition(
                    _want(t, "from", str, twhere),
                    _want(t, "to", str, twhere),
                    _want(t, "action", str, twhere),
                    guard,
                    tuple(effects),
                )
            )
        processes.append(
            Process(
                _want(p, "name", str, where),
                tuple(_want(p, "states", list, where)),
                _want(p, "start", str, where),
                tuple(transitions),
            )
        )
    return SharedVariableProgram(name, tuple(variables), tuple(processes))
