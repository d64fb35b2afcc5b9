"""Shared pieces of a benchmark run: paths, child processes, the host-speed clock.

The benchmark is one client in a closed loop: it starts the next instance or
``delmenu`` call only after the previous one has returned.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import layers
import mix

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference"

CALL_TIMEOUT_S = 120.0


# Host-speed probe: a fixed stdlib workload of the same kind as delmenu's
# (Fraction sums with growing denominators).  On a shared machine the same
# work can run 1.7x slower from one second to the next, so a sample's wall
# time is reported rescaled to the reference speed, at which one probe takes
# PROBE_REFERENCE_S.  Raw times go to the result file too.
PROBE_TERMS = 300
PROBE_REFERENCE_S = 0.001
PROBE_INTERVAL_S = 0.04


def host_probe(clock=time.perf_counter) -> float:
    """Seconds the probe workload takes now, read on ``clock``."""
    start = clock()
    acc = Fraction(0)
    for k in range(1, PROBE_TERMS):
        acc += Fraction(1, k)
    return clock() - start


def host_speed() -> float:
    """Current host speed relative to the reference (2.0: twice as fast)."""
    return PROBE_REFERENCE_S / host_probe()


def mean_scale(samples: list[Sample]) -> float:
    """Time-weighted host-speed scale of ``samples``."""
    return sum(s.scaled for s in samples) / sum(s.seconds for s in samples)


def pin_one_cpu() -> int:
    """Keep this process, and the children it starts, on one CPU.

    Host speed differs between CPUs from moment to moment; on one CPU the
    probes measure the CPU the measured work ran on.  Returns that CPU.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def source_present() -> bool:
    return (SRC / "delmenu" / "__init__.py").is_file()


def child_env() -> dict[str, str]:
    """Environment for child interpreters: this checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def load_delmenu() -> SimpleNamespace:
    """Import ``delmenu`` from this checkout's ``src`` (see ``mix.load_delmenu``)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    dm = mix.load_delmenu()
    if not Path(dm.model.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"delmenu imported from {dm.model.__file__}, not from {SRC}")
    return dm


def run_child(argv: list[str]) -> None:
    proc = subprocess.run(
        [sys.executable, *argv],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CALL_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child {argv} failed:\n{proc.stderr}")


def median_setup(argv: list[str], reps: int) -> tuple[float, list[Sample]]:
    """Median rescaled wall time of ``reps`` fresh ``python argv`` processes.

    Interpreter start-up is included: a user pays it on every fresh process.
    """
    clock = Clock(child=True)
    samples = [clock.timed(None, run_child, argv) for _ in range(reps)]
    failed = [s.error for s in samples if s.error]
    if failed:
        raise RuntimeError(failed[0])
    return statistics.median(s.scaled for s in samples), samples


@dataclass
class Sample:
    """One timed unit of work and whatever is needed to check it afterwards.

    ``seconds`` is wall time less the probes run inside it; ``scaled`` is
    the time it would have taken at the reference host speed.
    """

    seconds: float
    subject: object
    output: object = None
    error: str | None = None
    scale: float = 1.0

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


class Clock:
    """Times samples and rescales each by the host speed it ran at.

    Probes run just before and after every sample, and an interval timer
    runs one every PROBE_INTERVAL_S inside it (about 2% of the time,
    subtracted from the sample), so a speed change half-way through a sample
    is caught.  A sample's scale is the mean over its probes of
    PROBE_REFERENCE_S / probe time: its time at reference speed.

    With ``child``, the sample runs a child process on this process's CPU
    (see :func:`pin_one_cpu`).  The probes then read this thread's CPU time,
    not wall time: a probe that the scheduler interleaves with the child
    must not count the child's run time, neither in the host speed nor in
    the time subtracted from the sample.  The CPU time a probe takes is what
    it delays the child by.
    """

    def __init__(self, child: bool = False) -> None:
        self.probe_clock = time.thread_time if child else time.perf_counter
        self.last_probe = host_probe(self.probe_clock)
        self.inner: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.inner.append(host_probe(self.probe_clock))

    def timed(self, subject, fn, *args) -> Sample:
        """Run ``fn(*args)`` once; a raised exception is recorded, not propagated.

        The benchmark must keep going to report how many operations failed,
        so any exception from the code under test becomes a failed sample.
        """
        self.inner = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        start = time.perf_counter()
        try:
            output, error = fn(*args), None
        except Exception:
            output, error = None, traceback.format_exc(limit=4)
        finally:
            # Stop the timer first: a tick still pending runs before the
            # clock is read, so every probe subtracted lies inside the sample.
            signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = time.perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
        probes = [self.last_probe, *self.inner]
        self.last_probe = host_probe(self.probe_clock)
        probes.append(self.last_probe)
        scale = statistics.fmean(PROBE_REFERENCE_S / p for p in probes)
        return Sample(seconds - sum(self.inner), subject, output, error, scale)


def traced_run(dm, slots, run_pass, spans_path) -> tuple[list[Sample], dict[str, float]]:
    """The traced-run protocol every workload shares; (traced samples, layer metrics).

    ``run_pass(clock, tracer)`` runs one pass of ``slots`` and returns its
    samples, opening its own spans and request scopes on ``tracer``.  It
    runs once untraced (the tracer is off and no wrapper is installed), then
    the microbenchmarks run on the pass's instances, then the pass runs
    again with every layer wrapped.  The spans go to ``spans_path``.
    """
    clock = Clock()
    tracer = layers.Tracer()
    untraced = run_pass(clock, tracer)
    instances = [mix.build_item(dm, pool, sub).instance for pool, sub in slots if pool.kind != "sweep"]
    micro = layers.microbench(instances, dm.model.choice_key, host_speed)

    restore = layers.install(tracer)
    try:
        tracer.on = True
        traced = run_pass(clock, tracer)
    finally:
        tracer.on = False
        restore()
    tracer.write(spans_path)

    metrics = layers.layer_metrics(tracer, mean_scale(traced))
    metrics.update(micro)
    metrics["trace.overhead_ratio"] = sum(s.scaled for s in traced) / sum(s.scaled for s in untraced)
    return traced, metrics


def guarded(check, *args) -> list[str]:
    """Problems found by ``check(*args)``; a check that raises is one problem.

    An output of a shape the oracles do not expect is a failed sample, not a
    crashed benchmark.
    """
    try:
        return check(*args)
    except Exception:
        return [f"check raised\n{traceback.format_exc(limit=4)}"]


def load_reference(workload: str) -> dict:
    with open(REFERENCE / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)
