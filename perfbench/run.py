"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload synth-cold --seed 1 --seconds 40 --trace 0

``--trace 0`` times the workload end to end with no wrapper installed:
set-up plus one timed call, repeated while the next call would still
leave time for ``MIN_PROBES`` one-solution probe calls within
``--seconds`` (at least once).  Where the workload supports probes, they
sample ``first_result_s`` after an untimed warm-up probe: half before the
full calls, the rest after them until ``--seconds`` have passed.  It
reports the medians.  ``--trace 1`` repeats untraced/traced call pairs
instead and reports the per-layer metrics of the traced calls (medians
over the pairs).  Every output is checked against ``references.json``.
The last line of standard output is one JSON object: ``{"correct",
"attempted", "failed", "metrics"}``; the lines before it are a
human-readable account (cpu count, seed, failures, and on traced runs
the self time of every layer span).

The input is the paper's fixed msi-small row; ``--seed`` is recorded,
not used to generate anything.  Stores, spool files and other scratch
output go to a temporary directory under ``.perfbench-tmp/`` in the
checkout, removed before the program exits.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH_PARENT = os.path.join(ROOT, ".perfbench-tmp")
#: set-ups per run, at least: extra set-ups not followed by a call are
#: added so the ``setup_s`` median rests on many samples
MIN_SETUPS = 60
#: one-solution probe calls per run, at least, on workloads that support
#: them, so that the ``first_result_s`` median of an interval of a second
#: or two rests on many samples, not one per full call; time a run's full
#: calls leave over goes to more probes
MIN_PROBES = 8


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> None:
    """Import ``repro`` from this checkout's sources, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no repro sources under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _peak_rss_mb(worker_processes: int) -> float:
    """Peak resident set of this process plus, per worker process, the
    largest peak among the reaped children (an upper bound on their
    simultaneous peak)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + worker_processes * children) / 1024.0


def _timed_setup(workload, probe: bool = False) -> Any:
    # Garbage collection stays off while a set-up is timed, as in timeit:
    # whether a collection of earlier calls' garbage lands inside a
    # sub-millisecond set-up is chance, not set-up cost.
    gc.disable()
    try:
        begin = time.perf_counter()
        state = workload.setup(probe)
        return state, time.perf_counter() - begin
    finally:
        gc.enable()


def _timed_call(workload, probe: bool = False) -> Any:
    """Set up and make one untraced call; returns (set-up s, outcome)."""
    state, setup_s = _timed_setup(workload, probe)
    gc.collect()
    outcome = workload.call(state)
    workload.release(state)
    return setup_s, outcome


def measure(workload, seconds: float) -> Dict[str, Any]:
    """End-to-end run: a warm-up probe, half the probes, full calls until
    the next one would leave too little time for the other half, probe
    calls until ``seconds`` have passed, then the extra set-ups."""
    problems: List[Optional[str]] = []
    setups: List[float] = []
    runs: List[float] = []
    firsts: List[float] = []

    def probe() -> None:
        setup_s, outcome = _timed_call(workload, probe=True)
        setups.append(setup_s)
        firsts.append(outcome.first_result_s)
        problems.extend(outcome.problems)

    probe_reserve = 0.0
    if workload.probes:
        # Not a sample: one-time costs (lazy imports, first store open)
        # stay out of the short first_result_s interval.  Its length sizes
        # the time kept for the probes.
        warm_up_begin = time.perf_counter()
        problems.extend(_timed_call(workload, probe=True)[1].problems)
        probe_reserve = MIN_PROBES * (time.perf_counter() - warm_up_begin)
    begin = time.perf_counter()
    full_end = begin + seconds - probe_reserve
    # Probes run on both sides of the full calls, so first_result_s
    # samples the whole run rather than its last seconds.
    probes = MIN_PROBES // 2 if workload.probes else 0
    for _ in range(probes):
        probe()
    while True:
        call_begin = time.perf_counter()
        setup_s, outcome = _timed_call(workload)
        setups.append(setup_s)
        runs.append(outcome.run_s)
        firsts.append(outcome.first_result_s)
        problems.extend(outcome.problems)
        now = time.perf_counter()
        if now + (now - call_begin) > full_end:
            break
    while workload.probes and (
        probes < MIN_PROBES or time.perf_counter() < begin + seconds
    ):
        probe()
        probes += 1
    while len(setups) < MIN_SETUPS:
        state, setup_s = _timed_setup(workload)
        setups.append(setup_s)
        workload.release(state)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(runs), "s"),
        "first_result_s": (statistics.median(firsts), "s"),
        "peak_rss_mb": (_peak_rss_mb(workload.workers), "MB"),
    }
    notes = [f"calls: {len(runs)}; first results: {len(firsts)}; "
             f"set-ups: {len(setups)}",
             "run_s samples: " + ", ".join(f"{value:.3f}" for value in runs),
             "first_result_s quartiles: " + ", ".join(
                 f"{value:.3f}" for value in _quartiles(firsts))]
    return {"problems": problems, "metrics": metrics, "notes": notes}


def _quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return list(values)
    return statistics.quantiles(values, n=4)


def traced_call(workload, tracer):
    """Set up and make one call with every layer wrapper installed.

    Afterwards ``tracer`` holds the call's spans and counts, worker spans
    included, and every wrapper is removed again.
    """
    import bench_trace

    with bench_trace.installed(tracer):
        tracer.reset(workload.name + bench_trace.SETUP_SUFFIX)
        state, _setup_s = _timed_setup(workload)
        tracer.run_id = workload.name
        gc.collect()
        outcome = workload.call(state, root=lambda: tracer.span("engine"))
    workload.release(state)
    tracer.collect_workers()
    return outcome


def trace(workload, seconds: float, scratch: str,
          sequential_evaluated: int) -> Dict[str, Any]:
    """Traced run: untraced/traced call pairs while time is left; the
    per-layer metrics are medians over the traced calls."""
    import bench_trace

    problems: List[Optional[str]] = []
    tracer = bench_trace.Tracer(scratch)
    samples: Dict[str, List[float]] = {}
    begin = time.perf_counter()
    while True:
        pair_begin = time.perf_counter()
        _setup_s, untraced = _timed_call(workload)
        traced = traced_call(workload, tracer)
        problems.extend(untraced.problems + traced.problems)
        layers = bench_trace.layer_metrics(
            tracer, traced.report, traced.run_s, untraced.run_s,
            workload.workers, sequential_evaluated,
        )
        for name, value in layers.items():
            samples.setdefault(name, []).append(value)
        now = time.perf_counter()
        if now + (now - pair_begin) > begin + seconds:
            break
    metrics = {
        name: (statistics.median(values), bench_trace.UNITS[name])
        for name, values in samples.items()
    }
    notes = [f"traced pairs: {len(samples['kernel.runs'])}; last pair: "
             f"traced run_s {traced.run_s:.3f}, untraced {untraced.run_s:.3f}"]
    notes += bench_trace.render_table(tracer, traced.run_s)
    return {"problems": problems, "metrics": metrics, "notes": notes}


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    _import_program()
    sys.path.insert(0, HERE)
    import bench_workloads

    if args.workload not in bench_workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; known: "
                 f"{', '.join(bench_workloads.WORKLOADS)}")
    references = bench_workloads.load_references()
    os.makedirs(SCRATCH_PARENT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=SCRATCH_PARENT)
    # SQLite's own temporary files stay inside the checkout as well.
    os.environ["SQLITE_TMPDIR"] = scratch
    workload = bench_workloads.WORKLOADS[args.workload](scratch, references)
    try:
        if args.trace:
            result = trace(workload, args.seconds, scratch,
                           references["synthesis"]["sequential_evaluated"])
        else:
            result = measure(workload, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(SCRATCH_PARENT)
        except OSError:
            pass  # another run's scratch directory is still there
    problems = result["problems"]
    failed = [problem for problem in problems if problem is not None]
    print(f"# workload {args.workload}, seed {args.seed}, "
          f"cpu_count {os.cpu_count()}, trace {args.trace}, "
          f"failed_share {len(failed)}/{len(problems)}")
    for line in result["notes"]:
        print(f"# {line}")
    for problem in failed:
        print(f"# FAILED: {problem}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(problems),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
