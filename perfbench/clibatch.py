"""The cli-batch workload: ``delmenu`` commands as a user runs them.

Each round generates a random independent file, a random correlated file
and a log-family file, solves and verifies each, then sweeps a ~200-instance
spec.  Untraced, every call is a fresh ``python -m delmenu.cli`` process and
one sample.  Traced, the same calls go through ``delmenu.cli.main`` in this
process, so that the serialize and CLI spans exist.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import harness
import mix
import oracles
from harness import Sample


def write_spec(spec: dict) -> None:
    if spec:
        Path(spec["path"]).write_text(json.dumps(spec["body"]), encoding="utf-8")


def run_subprocess(argv: list[str]) -> tuple[int, str, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "delmenu.cli", *argv],
        env=harness.child_env(),
        capture_output=True,
        text=True,
        timeout=harness.CALL_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_in_process(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def run_round(clock, slots, tag: str, directory: Path, call_fn, scope=nullcontext) -> list[Sample]:
    calls, spec = mix.cli_round(slots, tag, directory)
    write_spec(spec)
    samples = []
    for call in calls:
        with scope():
            samples.append(clock.timed((call, spec), call_fn, list(call.argv)))
    return samples


def expected_ids(spec: dict) -> list[str]:
    """Instance ids a sweep of ``spec`` writes, in order (the CSV contract)."""
    return [
        f"random-{block['kind']}-s{block['seed0'] + j}"
        for block in spec["body"]
        for j in range(block["count"])
    ]


def sweep_family(pool: mix.Pool) -> str:
    """Sweep rows are recorded per pool: ids repeat across instance sizes."""
    return f"n{pool.n}-z{pool.size}"


def check_call(call: mix.Call, spec: dict, stdout: str, reference: dict, dm) -> list[str]:
    key = call.key
    if call.verb == "generate":
        digest = hashlib.sha256(Path(call.path).read_bytes()).hexdigest()
        return oracles.compare_reference(key, digest, reference["files"])
    if call.verb == "solve":
        try:
            obj = json.loads(stdout)
        except json.JSONDecodeError:
            return [f"{key}: solve printed no JSON"]
        instance = mix.build_item(dm, call.pool, call.sub).instance
        return oracles.check_solve_output(key, obj, instance) + oracles.compare_reference(
            key, obj, reference["solve"]
        )
    if call.verb == "sweep":
        rows = oracles.read_rows(call.path)
        problems = oracles.check_sweep_rows(key, rows, expected_ids(spec))
        recorded = reference["sweep"].get(sweep_family(call.pool), {})
        for instance_id, row in oracles.sweep_record(rows).items():
            problems += oracles.compare_reference(instance_id, row, recorded)
        return problems
    return []  # verify: its exit code is the contract, its stdout is not


def check(samples: list[Sample], dm) -> list[list[str]]:
    reference = harness.load_reference("cli-batch")
    problems = []
    for s in samples:
        call, spec = s.subject
        if s.error is not None:
            problems.append([f"{call.verb} {call.key}: raised\n{s.error}"])
            continue
        code, stdout, stderr = s.output
        if code != 0:
            problems.append([f"{call.verb} {call.key}: exit code {code}: {stderr.strip()[-300:]}"])
            continue
        problems.append(harness.guarded(check_call, call, spec, stdout, reference, dm))
    return problems


def fresh_dir(tag: str) -> Path:
    directory = harness.OUT / f"work-{tag}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    return directory


def measure(seed: int, smoke: bool) -> dict:
    plan = mix.mix_for("cli-batch", smoke)
    setup, setup_runs = harness.median_setup(["-c", "import delmenu.cli"], plan.setup_reps)
    clock = harness.Clock(child=True)
    directory = fresh_dir(f"cli-{os.getpid()}")
    try:
        samples = []
        for p, slots in enumerate(mix.passes("cli-batch", seed, smoke)):
            samples += run_round(clock, slots, str(p), directory, run_subprocess)
        rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        problems = check(samples, harness.load_delmenu())
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {
        "samples": samples,
        "passes": plan.passes,
        "setup_s": setup,
        "setup_runs": setup_runs,
        "peak_rss_mb": rss_mb,
        "problems": problems,
    }


def trace(seed: int, smoke: bool, spans_path) -> dict:
    """The first round in-process, untraced and then traced (``harness.traced_run``)."""
    dm = harness.load_delmenu()
    call = functools.partial(run_in_process, importlib.import_module("delmenu.cli"))
    slots = mix.passes("cli-batch", seed, smoke)[0]
    directory = fresh_dir(f"cli-trace-{os.getpid()}")

    def run_pass(clock, tracer):
        scope = functools.partial(tracer.request_scope, "cli.main")
        return run_round(clock, slots, "0", directory, call, scope)

    try:
        traced, metrics = harness.traced_run(dm, slots, run_pass, spans_path)
        problems = check(traced, dm)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {"samples": traced, "passes": 1, "layers": metrics, "problems": problems}


def record(pairs) -> dict:
    """Reference outputs (files, solve output, sweep rows) of (pool, sub) pairs.

    Produced through ``delmenu.cli.main`` in-process, which runs the same
    code the subprocesses do.  Oracles must pass before anything is kept.
    """
    dm = harness.load_delmenu()
    cli = importlib.import_module("delmenu.cli")
    out = {"files": {}, "solve": {}, "sweep": {}}
    directory = fresh_dir(f"record-{os.getpid()}")

    def must(call: mix.Call, spec: dict) -> None:
        code, stdout, err = run_in_process(cli, list(call.argv))
        if code != 0:
            raise RuntimeError(f"{call.verb} {call.key}: exit code {code}: {err}")
        if call.verb == "generate":
            out["files"][call.key] = hashlib.sha256(Path(call.path).read_bytes()).hexdigest()
        elif call.verb == "solve":
            out["solve"][call.key] = json.loads(stdout)
        elif call.verb == "sweep":
            rows = oracles.sweep_record(oracles.read_rows(call.path))
            out["sweep"].setdefault(sweep_family(call.pool), {}).update(rows)
        problems = check_call(call, spec, stdout, out, dm)
        if problems:
            raise RuntimeError("; ".join(problems))

    try:
        for pool, sub in pairs:
            calls, spec = mix.cli_round([(pool, sub)], "r", directory)
            write_spec(spec)
            for call in calls:
                if call.verb != "verify":
                    must(call, spec)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return out
