"""The benchmark's workloads: seeded inputs, job lists and expectations.

Each workload is a fixed list of real ``hda-lab`` command lines, run one
after another in a work directory; later jobs read the HDA files earlier
``model`` and ``tensor`` jobs wrote.  The seed only changes the order in
which processes, variables and each process's transitions are declared in
the generated program files, and the letters on the tensor-product
circles.  Every model stays isomorphic, so the expectation table holds for
every seed.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, replace
from pathlib import Path

# No dense F_p workload: phil4 over GF(3) spends 12 s of a 22 s pass in one
# implements job, so a run of at most 60 s holds two passes of it, too few
# for a median that stays within its bound on a shared host.
WORKLOADS = ("ladder-z", "phil5-gf2")

# One end-to-end time metric per subcommand; tensor jobs count as model jobs.
COMMANDS = ("model", "homology", "labels", "implements", "independence")

OBSTRUCTION_EXIT = 3


@dataclass(frozen=True)
class Expected:
    """Basis-independent facts about one model's homology."""

    cells: tuple[int, ...]
    groups: tuple[tuple[int, tuple[int, ...]], ...]  # (free rank, torsion) per degree
    # (label image rank, zero-label rank) per degree, for models a labels job reads
    labels: tuple[tuple[int, int], ...] | None = None


def _torsion_free(ranks: tuple[int, ...], cells: tuple[int, ...]) -> Expected:
    # For a table, H_1 has one loop per philosopher and H_2 one torus per
    # pair of non-adjacent philosophers.  Loop labels are letter sums over
    # disjoint letters and torus labels wedges of two of them, so every free
    # class has an independent label: image rank = rank, zero-label rank = 0.
    return Expected(
        cells,
        tuple((r, ()) for r in ranks),
        tuple((r, 0) for r in ranks),
    )


# Hand-written, never read back from the program under test:
#   peterson  README: cells 20 34 10, H_1 = Z^5 with zero-label rank 3.
#   klein     the fixture's 2 + 4 + 2 cells; H_1 = Z + Z/2 by geometry.
#   torus3    three 4-edge circles: (4 + 4t)^3 cells, ranks 1 3 3 1 by Kunneth.
#   philN     ranks 1/3 and 1/5/5 (the reduction prototype cited in
#             ROADMAP.md); cell counts of the compiled tables, tied to the
#             ranks by the Euler characteristic the checker recomputes.
EXPECTED = {
    "peterson": Expected(
        (20, 34, 10), ((1, ()), (5, ()), (0, ())), ((1, 0), (2, 3), (0, 0))
    ),
    "klein": Expected((2, 4, 2), ((1, ()), (1, (2,)), (0, ()))),
    "torus3": Expected((64, 192, 192, 64), ((1, ()), (3, ()), (3, ()), (1, ()))),
    "phil3": _torsion_free((1, 3, 0, 0), (99, 240, 183, 44)),
    "phil5": _torsion_free((1, 5, 5, 0, 0, 0), (2163, 8770, 13830, 10595, 3945, 572)),
}


@dataclass(frozen=True)
class Job:
    """One ``hda-lab`` command line and what it must produce."""

    argv: tuple[str, ...]
    exit: int = 0
    model: str | None = None  # key into EXPECTED for homology and labels
    out: str | None = None  # HDA file written by a model or tensor job

    @property
    def command(self) -> str:
        return "model" if self.argv[0] == "tensor" else self.argv[0]

    @property
    def ring(self) -> str:
        if "--ring" in self.argv:
            return self.argv[self.argv.index("--ring") + 1]
        return "z"


def _model(name: str, out: str, *extra: str) -> Job:
    return Job(("model", name, *extra, "--out", out), out=out)


def _program(stem: str) -> Job:
    return _model("program", f"{stem}.json", "--file", f"{stem}.prog.json")


def _circle(out: str, words: list[list[str]]) -> Job:
    return _model("circle", out, "--labels", ",".join(".".join(w) for w in words))


def _tensor(a: str, b: str, out: str) -> Job:
    return Job(("tensor", a, b, "--out", out), out=out)


def _analysis(cmd: str, ring: str, *files: str, model=None, exit=0) -> Job:
    return Job((cmd, *files, "--ring", ring, "--format", "json"), exit, model)


_PHILOSOPHER_STEPS = ("pick_l", "pick_r", "eat", "put_l", "put_r", "think")


def _loop(i: int) -> list[list[str]]:
    """The one-letter edges of philosopher i's cycle, in firing order."""
    return [[f"{step}_{i}"] for step in _PHILOSOPHER_STEPS]


def circle_words(rng: random.Random, prefix: str) -> list[list[str]]:
    """Four edges, two of one letter and two of two; no letter is used twice.

    Six letters per circle keep the alphabet, and so the label matrices,
    the same size for every seed.
    """
    sizes = rng.sample([1, 1, 2, 2], 4)
    letters = [f"{prefix}{k}" for k in rng.sample(range(1000), sum(sizes))]
    words = []
    for size in sizes:
        words.append(letters[:size])
        letters = letters[size:]
    return words


def _table(n: int, ring: str, pair: tuple[int, int], obstruction: bool) -> list[Job]:
    """Philosophers and butler for n, then every analysis command on phil{n}."""
    a, b = pair
    phil, butler = f"phil{n}.json", f"butler{n}.json"
    return [
        _program(f"phil{n}"),
        _program(f"butler{n}"),
        _analysis("homology", ring, phil, model=f"phil{n}"),
        _analysis("implements", ring, phil, butler),
        _circle(f"loop{a}.json", _loop(a)),
        _circle(f"loop{b}.json", _loop(b)),
        _analysis("labels", ring, phil, model=f"phil{n}"),
        _analysis(
            "independence",
            ring,
            phil,
            f"loop{a}.json",
            f"loop{b}.json",
            exit=OBSTRUCTION_EXIT if obstruction else 0,
        ),
    ]


def jobs(workload: str, seed: int) -> list[Job]:
    """The workload's job list; only the circle words depend on the seed."""
    if workload == "ladder-z":
        rng = random.Random(f"{seed}/circles")
        circles = [_circle(f"c{k}.json", circle_words(rng, "xyz"[k])) for k in range(3)]
        return _table(3, "z", (0, 1), obstruction=True) + [
            _model("peterson", "peterson.json"),
            _analysis("labels", "z", "peterson.json", model="peterson"),
            _model("lock-counter", "lock.json"),
            _model("lock-spec", "lockspec.json"),
            _analysis("implements", "z", "lock.json", "lockspec.json", exit=OBSTRUCTION_EXIT),
            _model("klein", "klein.json"),
            _analysis("homology", "z", "klein.json", model="klein"),
            *circles,
            _tensor("c0.json", "c1.json", "c01.json"),
            _tensor("c01.json", "c2.json", "torus3.json"),
            _analysis("homology", "z", "torus3.json", model="torus3"),
            _analysis("independence", "z", "torus3.json", "c0.json", "c1.json", "c2.json"),
        ]
    if workload == "phil5-gf2":
        return _table(5, "zp:2", (0, 2), obstruction=False)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


# -- program files, written at set-up ---------------------------------------------
# Only these functions import hda_lab, so run.py, which times the package,
# never loads it itself.

_TABLE_SIZE = {"ladder-z": 3, "phil5-gf2": 5}


def _butler(n: int):
    """The table plus a ``seats`` counter that admits at most n-1 diners.

    A diner takes a seat with its left stick and leaves with its right one;
    the counter's domain stops the n-th pick, and the alphabet is unchanged.
    """
    from hda_lab.models import dining_philosophers
    from hda_lab.programs import SharedVariable

    seat = {"pick_l": 1, "put_r": -1}
    table = dining_philosophers(n)
    processes = []
    for p in table.processes:
        transitions = []
        for t in p.transitions:
            step = t.action.rsplit("_", 1)[0]
            if step in seat:
                t = replace(t, effects=t.effects + (("add", "seats", seat[step]),))
            transitions.append(t)
        processes.append(replace(p, transitions=tuple(transitions)))
    seats = SharedVariable("seats", tuple(range(n)), (0,))
    return replace(
        table,
        name=f"butler{n}",
        variables=table.variables + (seats,),
        processes=tuple(processes),
    )


def _shuffled(prog, rng: random.Random):
    """The same program with processes, variables and transitions reordered."""
    variables = list(prog.variables)
    rng.shuffle(variables)
    processes = []
    for p in prog.processes:
        transitions = list(p.transitions)
        rng.shuffle(transitions)
        processes.append(replace(p, transitions=tuple(transitions)))
    rng.shuffle(processes)
    return replace(prog, variables=tuple(variables), processes=tuple(processes))


def write_inputs(workload: str, seed: int, where: Path) -> None:
    """Write the seeded program files a workload's ``model program`` jobs read."""
    from hda_lab.fileformats import save_program
    from hda_lab.models import dining_philosophers

    n = _TABLE_SIZE[workload]
    for stem, prog in ((f"phil{n}", dining_philosophers(n)), (f"butler{n}", _butler(n))):
        rng = random.Random(f"{seed}/{stem}")
        save_program(_shuffled(prog, rng), str(where / f"{stem}.prog.json"))


if __name__ == "__main__":
    # Set-up step of a run: python bench/workloads.py WORKLOAD SEED DIR
    write_inputs(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
