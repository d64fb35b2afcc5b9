#!/usr/bin/env python3
"""Benchmark of the delmenu toolkit: one workload, one run, one JSON line.

Run from the repository root (stdlib only, nothing to build):

    python3 perfbench/run.py --workload opt-exhaustive --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --report --seed 1 --seconds 30

A run makes the fixed number of passes its mix names (``mix.py``), however
fast the program is, so parent and change are compared on the same samples;
``--seconds`` is recorded but does not stretch or cut a run.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes a
separate traced run and reports the per-layer metrics.  ``--report`` runs
every workload both ways and prints every metric with its unit.  ``--smoke``
shrinks every instance so a run takes seconds (the benchmark's own test uses
it).  The last stdout line is the result object; the line before it, which
starts with ``info``, holds the run's metadata.  Both also go to
``perfbench/out/``, with the traced run's spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

import clibatch
import harness
import inproc
import layers
import mix

# (name, unit) of every end-to-end metric, in output order.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.tail", "ms"),
    ("peak_rss_mb", "MB"),
)


def tail(seconds: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with 10 beyond.

    With ten or fewer samples no percentile qualifies; the maximum is
    reported then, with the count beyond it (zero) saying so.
    """
    ordered = sorted(seconds)
    n = len(ordered)
    if n > 10:
        return ordered[n - 11], 100.0 * (n - 10) / n, 10
    return ordered[-1], 100.0, 0


def label(subject) -> str:
    """Instance key of an in-process sample, or "verb key" of a CLI call."""
    if isinstance(subject, mix.Item):
        return subject.key
    call, _ = subject
    return f"{call.verb} {call.key}"


def git_commit() -> str | None:
    if not (harness.ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(harness.ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over ``src/``'s Python files, which names the code measured
    even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(harness.SRC.rglob("*.py")):
        digest.update(str(path.relative_to(harness.SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def measure(args) -> dict:
    spans = harness.OUT / f"spans-{args.workload}-s{args.seed}.jsonl"
    if args.workload == "cli-batch":
        if args.trace:
            return clibatch.trace(args.seed, args.smoke, spans)
        return clibatch.measure(args.seed, args.smoke)
    if args.trace:
        return inproc.trace(args.workload, args.seed, args.smoke, spans)
    return inproc.measure(args.workload, args.seed, args.smoke)


def run_one(args) -> int:
    if not harness.source_present():
        print(f"error: no delmenu sources under {harness.SRC}", file=sys.stderr)
        return 2
    harness.OUT.mkdir(exist_ok=True)
    cpu = harness.pin_one_cpu()
    data = measure(args)
    problems = data["problems"]
    attempted = len(problems)
    failed = sum(1 for p in problems if p)
    samples = data["samples"]
    seconds = [s.scaled for s in samples]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out": args.seed == mix.HELD_OUT_SEED,
        "trace": args.trace,
        "smoke": args.smoke,
        "seconds_requested": args.seconds,
        "passes": data["passes"],
        "samples": len(seconds),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_pinned": cpu,
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "failures": [p for sample in problems for p in sample][:10],
    }
    if args.trace:
        values = dict(data["layers"], failed_ratio=failed / attempted)
        units = {name: unit for name, unit, _ in layers.LAYER_METRICS}
    else:
        value, percentile, beyond = tail(seconds)
        raw = [s.seconds for s in samples]
        info.update(
            tail_percentile=percentile,
            tail_samples_beyond=beyond,
            setup_samples=len(data["setup_runs"]),
            setup_runs_s=[s.scaled for s in data["setup_runs"]],
            raw_setup_runs_s=[s.seconds for s in data["setup_runs"]],
            raw_throughput_per_s=len(raw) / sum(raw),
            raw_latency_ms_p50=1000 * statistics.median(raw),
            raw_latency_ms_tail=1000 * tail(raw)[0],
            host_scale_median=statistics.median(s.scale for s in samples),
        )
        values = {
            "setup_s": data["setup_s"],
            "throughput_per_s": len(seconds) / sum(seconds),
            "latency_ms.p50": 1000 * statistics.median(seconds),
            "latency_ms.tail": 1000 * value,
            "peak_rss_mb": data["peak_rss_mb"],
        }
        units = dict(END_TO_END)
    latencies = [[label(s.subject), 1000 * s.seconds, s.scale] for s in samples]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    stem = f"result-{args.workload}-s{args.seed}-t{args.trace}"
    (harness.OUT / f"{stem}.json").write_text(
        json.dumps({"info": info, "result": result, "samples": latencies}, indent=1) + "\n",
        encoding="utf-8",
    )
    for line in info["failures"]:
        print(f"FAILED: {line}", file=sys.stderr)
    print("info " + json.dumps(info))
    print(json.dumps(result))
    return 0


def report(args) -> int:
    """Every workload, untraced and traced, as one table of named metrics."""
    runs = {}
    for workload in mix.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", workload, "--trace", str(trace)]
            argv += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
            argv += ["--smoke"] if args.smoke else []
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            info = json.loads(lines[-2][len("info "):])
            result = json.loads(lines[-1])
            runs[f"{workload}/trace{trace}"] = {"info": info, "result": result}
            print(
                f"{workload} trace={trace}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']} "
                f"samples={info['samples']} passes={info['passes']}"
                + (f" tail=p{info['tail_percentile']:.1f}" if not trace else "")
            )
            for name, metric in result["metrics"].items():
                print(f"  {name:<48} {metric['value']:>18.6f} {metric['unit']}")
    harness.OUT.mkdir(exist_ok=True)
    (harness.OUT / "report.json").write_text(json.dumps(runs, indent=2) + "\n", encoding="utf-8")
    return 0 if all(r["result"]["correct"] for r in runs.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=mix.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10, help="recorded only")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny instances")
    parser.add_argument("--report", action="store_true", help="every workload, both modes")
    args = parser.parse_args(argv)
    if args.report:
        return report(args)
    if args.workload is None:
        parser.error("--workload is required unless --report is given")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
