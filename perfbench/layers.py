"""Per-layer measurement: spans and counters around ``delmenu``'s public calls.

Nothing under ``src/`` is changed.  :func:`install` replaces module-level
references to the functions in ``TARGETS`` with wrappers, in every loaded
``delmenu`` module that holds them (so ``delmenu.solve.evaluate`` and
``delmenu.evaluate.choice_key`` are covered as well as the defining module),
and returns a function that puts the originals back.  Callers must look
functions up through their module at call time for the wrappers to apply.

A span is ``[name, start_ns, end_ns, parent, request, size]``; spans stay in
memory and are written out once at the end.  Self time is a span's duration
minus its children's, which never overlap because the benchmark runs one
thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import random
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

EVALUATORS = ("evaluate.eval_correlated", "evaluate.eval_independent_dp")
MENU_OWNERS = ("solve.brute_force_opt", "solve.best_threshold")


def _menu(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["menu"]


def _supports(args, kwargs):
    instance = args[0]
    supports = [instance.actions[i - 1].support for i in _menu(args, kwargs)]
    if instance.outside is not None:
        supports.append(instance.outside.support)
    return supports


def _profiles(args, kwargs, result) -> int:
    return len(args[0].profiles)


def _support_entries(args, kwargs, result) -> int:
    return sum(len(s) for s in _supports(args, kwargs))


def _realizations(args, kwargs, result) -> int:
    size = 1
    for s in _supports(args, kwargs):
        size *= len(s)
    return size


def _text_bytes(args, kwargs, result) -> int:
    return len(args[0].encode())


def _result_bytes(args, kwargs, result) -> int:
    return len(result.encode())


@dataclass(frozen=True)
class Target:
    """A public function to wrap: count-only, or a span named ``label``.

    ``size`` returns an amount of work summed into the span's ``size``
    metric; ``evaluation`` marks one exact menu evaluation.
    """

    module: str
    name: str
    label: str
    count_only: bool = False
    size: Callable | None = None
    evaluation: bool = False


TARGETS = (
    Target("delmenu.model", "choice_key", "model.choice_key.calls", count_only=True),
    Target("delmenu.model", "agent_choice", "model.agent_choice.calls", count_only=True),
    Target("delmenu.solve", "log2_at_least", "solve.log2_at_least.calls", count_only=True),
    Target("delmenu.evaluate", "eval_correlated", "evaluate.eval_correlated", size=_profiles, evaluation=True),
    Target("delmenu.evaluate", "eval_independent_dp", "evaluate.eval_independent_dp", size=_support_entries, evaluation=True),
    Target("delmenu.evaluate", "eval_bruteforce_product", "evaluate.eval_bruteforce_product", size=_realizations),
    Target("delmenu.evaluate", "derandomize_interference", "evaluate.derandomize_interference"),
    Target("delmenu.evaluate", "decompose", "evaluate.decompose"),
    Target("delmenu.solve", "solve", "solve.solve"),
    Target("delmenu.solve", "brute_force_opt", "solve.brute_force_opt"),
    Target("delmenu.solve", "best_threshold", "solve.best_threshold"),
    Target("delmenu.solve", "bound_report", "solve.bound_report"),
    Target("delmenu.families", "gen_log_family", "families.gen_log_family"),
    Target("delmenu.families", "gen_three_approx", "families.gen_three_approx"),
    Target("delmenu.families", "gen_outside_family", "families.gen_outside_family"),
    Target("delmenu.families", "gen_random", "families.gen_random"),
    Target("delmenu.families", "from_assortment", "families.from_assortment"),
    Target("delmenu.reductions", "reduce_vertex_cover", "reductions.reduce_vertex_cover"),
    Target("delmenu.reductions", "reduce_integer_partition", "reductions.reduce_integer_partition"),
    Target("delmenu.reductions", "min_vertex_cover", "reductions.min_vertex_cover"),
    Target("delmenu.serialize", "loads_instance", "serialize.loads_instance", size=_text_bytes),
    Target("delmenu.serialize", "dumps_instance", "serialize.dumps_instance", size=_result_bytes),
    Target("delmenu.cli", "cmd_generate", "cli.generate"),
    Target("delmenu.cli", "cmd_solve", "cli.solve"),
    Target("delmenu.cli", "cmd_verify", "cli.verify"),
    Target("delmenu.cli", "cmd_sweep", "cli.sweep"),
)

# (name, unit, better) of every per-layer metric, in output order.
LAYER_METRICS = (
    ("failed_ratio", "ratio", "lower"),
    ("xnum.add_ns", "ns", "lower"),
    ("xnum.lt_ns", "ns", "lower"),
    ("model.choice_key_ns", "ns", "lower"),
    ("model.choice_key.calls", "count", "lower"),
    ("model.agent_choice.calls", "count", "lower"),
    ("evaluate.eval_correlated.calls", "count", "lower"),
    ("evaluate.eval_correlated.busy_s", "s", "lower"),
    ("evaluate.eval_correlated.profiles", "count", "lower"),
    ("evaluate.eval_independent_dp.calls", "count", "lower"),
    ("evaluate.eval_independent_dp.busy_s", "s", "lower"),
    ("evaluate.eval_independent_dp.support_entries", "count", "lower"),
    ("evaluate.eval_bruteforce_product.calls", "count", "lower"),
    ("evaluate.eval_bruteforce_product.busy_s", "s", "lower"),
    ("evaluate.eval_bruteforce_product.realizations", "count", "lower"),
    ("evaluate.derandomize_interference.calls", "count", "lower"),
    ("evaluate.derandomize_interference.busy_s", "s", "lower"),
    ("evaluate.decompose.busy_s", "s", "lower"),
    ("solve.brute_force_opt.busy_s", "s", "lower"),
    ("solve.brute_force_opt.self_s", "s", "lower"),
    ("solve.brute_force_opt.menus", "count", "lower"),
    ("solve.best_threshold.busy_s", "s", "lower"),
    ("solve.best_threshold.menus", "count", "lower"),
    ("solve.bound_report.busy_s", "s", "lower"),
    ("solve.log2_at_least.calls", "count", "lower"),
    ("solve.useful_eval_ratio", "ratio", "higher"),
    ("families.busy_s", "s", "lower"),
    ("reductions.reduce_vertex_cover.busy_s", "s", "lower"),
    ("reductions.reduce_integer_partition.busy_s", "s", "lower"),
    ("reductions.min_vertex_cover.busy_s", "s", "lower"),
    ("serialize.loads_instance.busy_s", "s", "lower"),
    ("serialize.loads_instance.bytes", "B", "lower"),
    ("serialize.dumps_instance.busy_s", "s", "lower"),
    ("serialize.dumps_instance.bytes", "B", "lower"),
    ("cli.generate.wall_s", "s", "lower"),
    ("cli.solve.wall_s", "s", "lower"),
    ("cli.verify.wall_s", "s", "lower"),
    ("cli.sweep.wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class Tracer:
    """In-memory spans, counters and per-request evaluation keys.

    While ``on`` is false it records nothing, so a pass can open the same
    spans and scopes whether it is traced or not.
    """

    def __init__(self) -> None:
        self.on = False
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.request = -1
        self.evaluations = 0
        self.distinct_evaluations = 0
        self._keys: set = set()
        self._alive: list = []  # keeps id() of evaluated instances unique per request

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.request, 0])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int, size: int = 0) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter_ns()
        span[5] = size
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.on:
            yield
            return
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    @contextmanager
    def request_scope(self, name: str):
        """One unit of work (an instance, or one CLI call) with its own root span."""
        if not self.on:
            yield
            return
        self.request += 1
        try:
            with self.span(name):
                yield
        finally:
            self.distinct_evaluations += len(self._keys)
            self._keys.clear()
            self._alive.clear()

    def note_evaluation(self, instance, menu) -> None:
        self.evaluations += 1
        self._keys.add((id(instance), frozenset(menu)))
        self._alive.append(instance)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"fields": ["name", "start_ns", "end_ns", "parent", "request", "size"]}\n')
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _wrap(tracer: Tracer, target: Target, fn: Callable) -> Callable:
    if target.count_only:

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.on:
                tracer.counts[target.label] += 1
            return fn(*args, **kwargs)

        return counted

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        if not tracer.on:
            return fn(*args, **kwargs)
        index = tracer.open(target.label)
        size = 0
        try:
            result = fn(*args, **kwargs)
            if target.size is not None:
                size = target.size(args, kwargs, result)
            if target.evaluation:
                tracer.note_evaluation(args[0], _menu(args, kwargs))
            return result
        finally:
            tracer.close(index, size)

    return spanned


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every reference to each target; return the undo function.

    A target missing from its module raises, so a renamed layer shows up as
    a benchmark error rather than as a silently idle metric.
    """
    replaced = []
    originals = [getattr(importlib.import_module(t.module), t.name) for t in TARGETS]
    modules = [m for name, m in sys.modules.items() if name == "delmenu" or name.startswith("delmenu.")]
    for target, original in zip(TARGETS, originals):
        wrapper = _wrap(tracer, target, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    replaced.append((module, attr, original))

    def restore() -> None:
        for module, attr, original in reversed(replaced):
            setattr(module, attr, original)

    return restore


def layer_metrics(tracer: Tracer, scale: float) -> dict[str, float]:
    """Counts, busy time (outermost span of a name), self time and work sizes.

    Times are multiplied by ``scale``, the traced samples' time-weighted
    host-speed scale, so they read at the same reference speed as the
    end-to-end figures.
    """
    per_s = scale / 1e9
    spans = tracer.spans
    names = [s[0] for s in spans]
    calls: Counter = Counter()
    busy: Counter = Counter()
    size: Counter = Counter()
    child_ns: Counter = Counter()
    menus: Counter = Counter()
    families_ns = 0
    for i, (name, start, end, parent, _, amount) in enumerate(spans):
        duration = end - start
        above = set()
        p = parent
        while p >= 0:
            above.add(names[p])
            p = spans[p][3]
        calls[name] += 1
        size[name] += amount
        if name not in above:
            busy[name] += duration
        if parent >= 0:
            child_ns[parent] += duration
        if name.startswith("families.") and not any(a.startswith("families.") for a in above):
            families_ns += duration
        if name in EVALUATORS:
            for owner in MENU_OWNERS:
                if owner in above:
                    menus[owner] += 1
    bfo_self = sum(
        spans[i][2] - spans[i][1] - child_ns[i]
        for i, name in enumerate(names)
        if name == "solve.brute_force_opt"
    )
    out: dict[str, float] = {}
    for label in ("model.choice_key.calls", "model.agent_choice.calls", "solve.log2_at_least.calls"):
        out[label] = tracer.counts[label]
    for name in (*EVALUATORS, "evaluate.eval_bruteforce_product", "evaluate.derandomize_interference"):
        out[f"{name}.calls"] = calls[name]
    for name in (
        *EVALUATORS,
        "evaluate.eval_bruteforce_product",
        "evaluate.derandomize_interference",
        "evaluate.decompose",
        *MENU_OWNERS,
        "solve.bound_report",
        "reductions.reduce_vertex_cover",
        "reductions.reduce_integer_partition",
        "reductions.min_vertex_cover",
        "serialize.loads_instance",
        "serialize.dumps_instance",
    ):
        out[f"{name}.busy_s"] = busy[name] * per_s
    out["evaluate.eval_correlated.profiles"] = size["evaluate.eval_correlated"]
    out["evaluate.eval_independent_dp.support_entries"] = size["evaluate.eval_independent_dp"]
    out["evaluate.eval_bruteforce_product.realizations"] = size["evaluate.eval_bruteforce_product"]
    out["serialize.loads_instance.bytes"] = size["serialize.loads_instance"]
    out["serialize.dumps_instance.bytes"] = size["serialize.dumps_instance"]
    out["solve.brute_force_opt.self_s"] = bfo_self * per_s
    for owner in MENU_OWNERS:
        out[f"{owner}.menus"] = menus[owner]
    out["solve.useful_eval_ratio"] = (
        tracer.distinct_evaluations / tracer.evaluations if tracer.evaluations else 1.0
    )
    out["families.busy_s"] = families_ns * per_s
    for verb in ("generate", "solve", "verify", "sweep"):
        out[f"cli.{verb}.wall_s"] = busy[f"cli.{verb}"] * per_s
    return out


def microbench(instances, choice_key, speed, reps: int = 7, pairs: int = 400) -> dict[str, float]:
    """ns per XNum add, XNum compare and ``choice_key`` on the workload's values.

    Operands are the instances' own values and biases, so large partition
    rationals weigh in as often as they occur.  Each figure is the median of
    ``reps`` timed sweeps over the same operand pairs, each rescaled by the
    mean of ``speed()`` (host speed relative to the reference) around it.
    """
    values, triples = [], []
    for inst in instances:
        if hasattr(inst, "profiles"):
            for profile in inst.profiles:
                for i, v in enumerate(profile.values[: len(inst.biases)], start=1):
                    values.append(v)
                    triples.append((i, v, inst.biases[i - 1]))
            values.extend(inst.biases)
        else:
            for i, action in enumerate(inst.actions, start=1):
                for v, _ in action.support:
                    values.append(v)
                    triples.append((i, v, action.bias))
                values.append(action.bias)
    rng = random.Random(0)
    operand_pairs = [(rng.choice(values), rng.choice(values)) for _ in range(pairs)]
    chosen = [rng.choice(triples) for _ in range(pairs)]

    def per_op(body: Callable[[], None]) -> float:
        samples = []
        for _ in range(reps):
            before = speed()
            start = time.perf_counter_ns()
            body()
            elapsed = time.perf_counter_ns() - start
            samples.append(elapsed / pairs * (before + speed()) / 2)
        return statistics.median(samples)

    def add():
        for a, b in operand_pairs:
            a + b

    def less():
        for a, b in operand_pairs:
            a < b

    def key():
        for i, v, b in chosen:
            choice_key(i, v, b)

    return {"xnum.add_ns": per_op(add), "xnum.lt_ns": per_op(less), "model.choice_key_ns": per_op(key)}
