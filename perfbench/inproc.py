"""The in-process workloads: opt-exhaustive and threshold-independent.

One sample is one instance: ``solve()`` plus ``bound_report()`` for
opt-exhaustive; ``best_threshold()``, ``evaluate(full_menu)`` and
``decompose(full_menu)`` for threshold-independent, where no exhaustive
search runs.
"""

from __future__ import annotations

import resource

import harness
import mix
import oracles
from harness import Sample


def run_opt(dm, item):
    result = dm.solve.solve(item.instance)
    return result, dm.solve.bound_report(item.instance, result)


def run_threshold(dm, item):
    inst = item.instance
    full = dm.model.full_menu(inst)
    return (
        dm.solve.best_threshold(inst),
        dm.evaluate.evaluate(inst, full),
        dm.evaluate.decompose(inst, full),
    )


RUN = {"opt-exhaustive": run_opt, "threshold-independent": run_threshold}
CHECK = {"opt-exhaustive": oracles.check_opt, "threshold-independent": oracles.check_threshold}
RECORD = {"opt-exhaustive": oracles.opt_record, "threshold-independent": oracles.threshold_record}


def check_one(workload: str, sample: Sample, reference: dict) -> list[str]:
    key = sample.subject.key
    if sample.error is not None:
        return [f"{key}: raised\n{sample.error}"]
    got = RECORD[workload](*sample.output)
    return CHECK[workload](sample.subject, *sample.output) + oracles.compare_reference(
        key, got, reference
    )


def check(workload: str, samples: list[Sample]) -> list[list[str]]:
    reference = harness.load_reference(workload)
    return [harness.guarded(check_one, workload, s, reference) for s in samples]


def build_pass(dm, slots) -> list[mix.Item]:
    return [mix.build_item(dm, pool, sub) for pool, sub in slots]


def measure(workload: str, seed: int, smoke: bool) -> dict:
    plan = mix.mix_for(workload, smoke)
    setup, setup_runs = harness.median_setup(
        [str(harness.HERE / "setup_probe.py"), workload, str(seed), str(int(smoke))],
        plan.setup_reps,
    )
    dm = harness.load_delmenu()
    run = RUN[workload]
    clock = harness.Clock()
    samples = []
    for slots in mix.passes(workload, seed, smoke):
        items = build_pass(dm, slots)
        samples += [clock.timed(item, run, dm, item) for item in items]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "samples": samples,
        "passes": plan.passes,
        "setup_s": setup,
        "setup_runs": setup_runs,
        "peak_rss_mb": rss_mb,
        "problems": check(workload, samples),
    }


def trace(workload: str, seed: int, smoke: bool, spans_path) -> dict:
    """The first pass of the run, untraced and then traced (``harness.traced_run``)."""
    dm = harness.load_delmenu()
    run = RUN[workload]
    slots = mix.passes(workload, seed, smoke)[0]

    def run_pass(clock, tracer):
        with tracer.span("bench.setup"):
            items = build_pass(dm, slots)
        samples = []
        for item in items:
            with tracer.request_scope("bench.instance"):
                samples.append(clock.timed(item, run, dm, item))
        return samples

    traced, metrics = harness.traced_run(dm, slots, run_pass, spans_path)
    return {"samples": traced, "passes": 1, "layers": metrics, "problems": check(workload, traced)}


def record(workload: str, pool: mix.Pool, sub: int) -> tuple[str, dict]:
    """The exact result of one pool instance, for ``reference/``.

    Refuses to record a result that fails an oracle: a reference must never
    enshrine a wrong answer.
    """
    dm = harness.load_delmenu()
    item = mix.build_item(dm, pool, sub)
    output = RUN[workload](dm, item)
    problems = CHECK[workload](item, *output)
    if problems:
        raise RuntimeError("; ".join(problems))
    return item.key, RECORD[workload](*output)
