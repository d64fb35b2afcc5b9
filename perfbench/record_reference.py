#!/usr/bin/env python3
"""Record the exact result of every instance the benchmark can run.

    python3 perfbench/record_reference.py [workload ...]

Writes ``perfbench/reference/<workload>.json`` (every workload, or those
named): for every pool of ``mix.py``
(full and smoke sizes), every sub-seed a run can meet, held-out ones
included.  Every result must pass its oracles before it is written.  Rerun
it only when the pools change; a reference recorded from changed program
code would hide the very differences it exists to catch.
"""

from __future__ import annotations

import json
import multiprocessing
import sys

import clibatch
import harness
import inproc
import mix

INPROC = ("opt-exhaustive", "threshold-independent")
WORKERS = 2  # one per core of the machine the references were recorded on


def subs(plan: mix.Mix) -> list[tuple[mix.Pool, int]]:
    """Every (pool, sub-seed) any seed of ``plan`` can run, held-out included."""
    return [
        (pool, sub)
        for pool in dict.fromkeys(plan.slots)
        for sub in dict.fromkeys(plan.subs(pool, False) + plan.subs(pool, True))
    ]


def tasks(workload: str) -> list[tuple[str, mix.Pool, int]]:
    pairs = subs(mix.FULL[workload]) + subs(mix.SMOKE[workload])
    return [(workload, pool, sub) for pool, sub in dict.fromkeys(pairs)]


def record_task(task: tuple[str, mix.Pool, int]) -> tuple[str, str, dict]:
    workload, pool, sub = task
    return (workload, *inproc.record(workload, pool, sub))


def write(workload: str, reference: dict) -> None:
    harness.REFERENCE.mkdir(exist_ok=True)
    path = harness.REFERENCE / f"{workload}.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def main(workloads: list[str]) -> None:
    unknown = set(workloads) - set(mix.WORKLOADS)
    if unknown:
        raise SystemExit(f"unknown workload(s): {sorted(unknown)}")
    if "cli-batch" in workloads:
        cli_reference: dict = {"files": {}, "solve": {}, "sweep": {}}
        for plan in (mix.FULL["cli-batch"], mix.SMOKE["cli-batch"]):
            for part, entries in clibatch.record(subs(plan)).items():
                cli_reference[part].update(entries)  # sweep rows are already keyed by pool
        write("cli-batch", cli_reference)

    inproc_workloads = [w for w in INPROC if w in workloads]
    if not inproc_workloads:
        return
    references: dict[str, dict] = {w: {} for w in inproc_workloads}
    all_tasks = [t for w in inproc_workloads for t in tasks(w)]
    with multiprocessing.get_context("spawn").Pool(WORKERS) as pool:
        for workload, key, result in pool.imap_unordered(record_task, all_tasks):
            references[workload][key] = result
    for workload, reference in references.items():
        write(workload, reference)


if __name__ == "__main__":
    main(sys.argv[1:] or list(mix.WORKLOADS))
