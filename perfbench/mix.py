"""Seeded instance sets and per-pass mixes for the benchmark workloads.

A workload is a list of slots, each naming a pool: one set of generator
parameters that a sub-seed completes to one instance.  A run makes a fixed
number of passes and draws, per pool, one sub-seed per slot and pass; so it
meets every sub-seed of the pool's set exactly once, in an order the
workload seed shuffles.  So every seed measures the same instances and the
same mix of costs, and the spread between runs is the machine's, not the
draw's.  The held-out seed measures a disjoint set of sub-seeds that no
other seed reaches, so that a claim tuned on ordinary seeds can be
rechecked on instances its author never ran.  A finite set per pool is also what lets
``reference/`` hold the exact result of every instance a run can meet.

Nothing here imports ``delmenu`` at module level: importing it is part of
what the set-up probe measures.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

MODULES = ("xnum", "model", "evaluate", "solve", "families", "reductions", "serialize")
HELD_OUT_SEED = 7919
HELD_OUT_BASE = 1000  # first sub-seed of the held-out sets

MODES = ("none", "fixed", "random")
WORKLOADS = ("opt-exhaustive", "threshold-independent", "cli-batch")


@dataclass(frozen=True)
class Pool:
    """One generator configuration; ``sub`` completes it to one instance.

    ``kind`` is ``log`` (n is k), ``corr`` (size is the profile count), ``ind``
    (size is the support size), ``vc`` (n vertices, size edges), ``part``
    (n integers) or ``sweep`` (a CLI sweep of size jobs of n actions per
    kind).  Random pools cycle the outside option through none, fixed and
    random with the sub-seed.
    """

    kind: str
    n: int
    size: int = 0

    @property
    def seeded(self) -> bool:
        return self.kind != "log"

    def key(self, sub: int) -> str:
        if not self.seeded:
            return f"log-k{self.n}"
        return f"{self.kind}-n{self.n}-z{self.size}-s{sub}"


@dataclass(frozen=True)
class Mix:
    """The slots of one pass (a pool may fill several) and the pass count.

    A run makes exactly ``passes`` passes, however fast the program is, so
    its sample count, its instance multiset and the rank its tail percentile
    reads are the same on every seed and every commit.
    """

    slots: tuple[Pool, ...]
    passes: int
    setup_reps: int

    def subs(self, pool: Pool, held_out: bool) -> list[int]:
        """The sub-seeds a run meets for ``pool``: one per slot and pass.

        An unseeded pool is one instance, met at every one of its slots.
        """
        count = self.slots.count(pool) * self.passes
        if not pool.seeded:
            return [0] * count
        base = HELD_OUT_BASE if held_out else 0
        return list(range(base, base + count))


FULL = {
    # The exhaustive search dominates: 2^n menus times profiles (or the DP).
    # Vertex-cover graphs keep their edge count and partitions their largest
    # integer fixed, so that instance cost does not drift with the seed.
    "opt-exhaustive": Mix(
        (
            Pool("log", 5),
            Pool("corr", 9, 12),
            Pool("corr", 9, 12),
            Pool("corr", 10, 12),
            Pool("corr", 10, 12),
            Pool("vc", 9, 14),
            Pool("vc", 9, 14),
            Pool("part", 7),
            Pool("part", 8),
        ),
        passes=3,
        setup_reps=9,
    ),
    # Three slots per size: over three passes each size meets every outside
    # mode exactly three times, whatever the seed.  The median and the tail
    # both read the middle (n=50) class.
    "threshold-independent": Mix(
        (Pool("ind", 40, 4),) * 3 + (Pool("ind", 50, 4),) * 3 + (Pool("ind", 60, 4),) * 3,
        passes=3,
        setup_reps=9,
    ),
    # Twelve rounds give twelve sweeps, the slowest calls, so the tail (the
    # 11th-largest of 120 samples) reads the second-fastest sweep: a sample
    # of about a second, which the host-speed probes rescale more steadily
    # than a 0.2 s call.
    "cli-batch": Mix(
        (Pool("ind", 5, 3), Pool("corr", 6, 8), Pool("log", 4), Pool("sweep", 4, 100)),
        passes=12,
        setup_reps=15,
    ),
}
SMOKE = {
    "opt-exhaustive": Mix(
        (Pool("log", 3), Pool("corr", 4, 5), Pool("vc", 4, 4), Pool("part", 3)),
        passes=1,
        setup_reps=2,
    ),
    "threshold-independent": Mix(
        (Pool("ind", 6, 3), Pool("ind", 8, 3)), passes=1, setup_reps=2
    ),
    "cli-batch": Mix(
        (Pool("ind", 3, 2), Pool("corr", 3, 3), Pool("log", 3), Pool("sweep", 3, 3)),
        passes=1,
        setup_reps=2,
    ),
}


def mix_for(workload: str, smoke: bool) -> Mix:
    return (SMOKE if smoke else FULL)[workload]


def passes(workload: str, seed: int, smoke: bool) -> list[list[tuple[Pool, int]]]:
    """The (pool, sub-seed) slots of each pass of one run.

    Each pool's sub-seeds come in a seeded order, each exactly once.
    """
    plan = mix_for(workload, smoke)
    rng = random.Random(f"{workload}/{seed}")
    order = {}
    for pool in dict.fromkeys(plan.slots):
        subs = plan.subs(pool, seed == HELD_OUT_SEED)
        rng.shuffle(subs)
        order[pool] = iter(subs)
    return [[(pool, next(order[pool])) for pool in plan.slots] for _ in range(plan.passes)]


# ---------------------------------------------------------------------------
# In-process instances
# ---------------------------------------------------------------------------


def load_delmenu() -> SimpleNamespace:
    """The ``delmenu`` modules by name (``dm.solve`` is the module).

    On the package, ``delmenu.solve`` is the *function* ``solve``, so modules
    are fetched with ``importlib``.  Callers look functions up on these
    modules at call time, which is what lets the tracer's wrappers apply.
    """
    return SimpleNamespace(**{m: importlib.import_module(f"delmenu.{m}") for m in MODULES})


@dataclass
class Item:
    """One generated instance plus what its oracles expect of it."""

    key: str
    pool: Pool
    instance: object
    expect: dict


def outside_mode(sub: int) -> str:
    return MODES[sub % len(MODES)]


def vc_graph(dm, pool: Pool, sub: int):
    rng = random.Random(f"vc{pool.n}-{sub}")
    edges = rng.sample(list(combinations(range(1, pool.n + 1), 2)), pool.size)
    return dm.reductions.Graph(pool.n, tuple(edges))


PART_MAX = 12


def partition_values(dm, pool: Pool, sub: int):
    """Integers in 1..12 with 12 always present, so M depends on n alone.

    Even sub-seeds have an even split and odd ones have none; rejection
    sampling from a seeded stream finds either kind quickly.
    """
    rng = random.Random(f"part{pool.n}-{sub}")
    want = sub % 2 == 0
    while True:
        values = (PART_MAX,) + tuple(rng.randint(1, PART_MAX) for _ in range(pool.n - 1))
        part = dm.reductions.PartitionInstance(values)
        if dm.reductions.has_partition(part) == want:
            return part


def build_item(dm, pool: Pool, sub: int) -> Item:
    """Generate one instance through the public ``delmenu`` modules in ``dm``.

    The oracle side (cover size, partition decision) is computed here too:
    it is part of what a user builds before solving.
    """
    key = pool.key(sub)
    if pool.kind == "log":
        k = pool.n
        opt_std = Fraction(k * 2**k, 2**k - 1)
        return Item(key, pool, dm.families.gen_log_family(k), {"opt_std": opt_std})
    if pool.kind in ("corr", "ind"):
        kind = "correlated" if pool.kind == "corr" else "independent"
        instance = dm.families.gen_random(
            kind, n=pool.n, support_size=pool.size, seed=sub, outside=outside_mode(sub)
        )
        return Item(key, pool, instance, {})
    if pool.kind == "vc":
        graph = vc_graph(dm, pool, sub)
        instance = dm.reductions.reduce_vertex_cover(graph)
        cover = dm.reductions.min_vertex_cover(graph)
        n, m = graph.vertices, len(graph.edges)
        return Item(key, pool, instance, {"opt": Fraction(5 * m + 3 * n - cover, m + n)})
    if pool.kind == "part":
        part = partition_values(dm, pool, sub)
        m_big = dm.reductions.minimal_valid_m(part)
        instance, threshold = dm.reductions.reduce_integer_partition(part, m_big)
        return Item(key, pool, instance, {"has_partition": sub % 2 == 0, "threshold": threshold})
    raise ValueError(f"pool kind {pool.kind!r} has no in-process instance")


# ---------------------------------------------------------------------------
# Command-line calls
# ---------------------------------------------------------------------------


def gen_argv(pool: Pool, sub: int, path: str) -> list[str]:
    if pool.kind == "log":
        return ["generate", "log", "--k", str(pool.n), "-o", path]
    kind = "correlated" if pool.kind == "corr" else "independent"
    return [
        "generate", "random", "--kind", kind, "--n", str(pool.n),
        "--support-size", str(pool.size), "--seed", str(sub),
        "--outside", outside_mode(sub), "-o", path,
    ]


def sweep_spec(pool: Pool, sub: int) -> list[dict]:
    """Half independent, half correlated instances of ``pool.n`` actions.

    Every block field but ``outside`` keeps the CLI's default (support size
    2, default value and bias ranges); the outside option is random, as in
    the ROADMAP's random-instance timings.  A sweep of 200 n=4 instances so
    built takes about the ROADMAP's 1.17 s.  Job seeds run
    ``sub .. sub+size-1``; instance ids carry the kind and the seed, so one
    reference row per id covers every sub-seed.
    """
    common = {"generator": "random", "n": pool.n, "count": pool.size, "seed0": sub}
    return [
        {**common, "kind": "independent", "outside": "random"},
        {**common, "kind": "correlated", "outside": "random"},
    ]


@dataclass(frozen=True)
class Call:
    """One ``delmenu`` invocation of a cli-batch round.

    ``verb`` is the subcommand; ``pool`` and ``sub`` name the instance (or
    sweep) whose reference it is checked against; ``path`` is the file it
    writes or reads.
    """

    verb: str
    pool: Pool
    sub: int
    argv: tuple[str, ...]
    path: str

    @property
    def key(self) -> str:
        return self.pool.key(self.sub)


def cli_round(slots: list[tuple[Pool, int]], tag: str, directory) -> tuple[list[Call], dict]:
    """The calls of one round, and the sweep spec to write before them.

    Each round generates its files, solves and verifies each, then sweeps.
    File names carry ``tag`` (the round number) so every output survives
    until it is checked.
    """
    calls: list[Call] = []
    files: list[tuple[Pool, int, str]] = []
    spec: dict = {}
    for pool, sub in slots:
        if pool.kind == "sweep":
            spec = {"path": str(directory / f"spec-{tag}.json"), "body": sweep_spec(pool, sub)}
            rows = str(directory / f"rows-{tag}.csv")
            sweep = Call("sweep", pool, sub, ("sweep", spec["path"], "-o", rows, "--jobs", "1"), rows)
            continue
        path = str(directory / f"{pool.kind}-{tag}.json")
        calls.append(Call("generate", pool, sub, tuple(gen_argv(pool, sub, path)), path))
        files.append((pool, sub, path))
    for verb in ("solve", "verify"):
        for pool, sub, path in files:
            calls.append(Call(verb, pool, sub, (verb, path), path))
    if spec:
        calls.append(sweep)
    return calls, spec
