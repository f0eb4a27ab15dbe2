"""Per-layer tracing for the benchmark's traced run.

The wrappers live here, in the benchmark's own files, not in ``repro``:
:func:`installed` patches the public functions of each layer for the
duration of one ``with`` block and restores the originals afterwards.
Each wrapped call records a span (name, start, end, parent span, run
identifier, process); self time is computed from the spans afterwards.

Forked ``synth-dist`` workers inherit the class patches.  A worker keeps
its own span buffer and appends it to a spool file in the run's scratch
directory after every ``BatchRunner.run_batch``, before the batch result
goes home, so every batch's spans are on disk once the coordinator has
merged the last result.  Spans a worker records after its last batch
(late pattern broadcasts) are not collected.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

# [span id, parent span id or None, name, start, end, run id, pid]
Span = list
#: run-id suffix of the spans recorded while a workload is set up
SETUP_SUFFIX = "/setup"
METRICS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "metrics.json")
with open(METRICS_PATH, "r", encoding="utf-8") as _handle:
    #: per-layer metric name -> unit, from the metric records
    UNITS: Dict[str, str] = {
        record["name"]: record["unit"]
        for record in json.load(_handle)["per_layer"]
    }


class Tracer:
    """In-memory span and counter buffer for one traced process tree."""

    def __init__(self, spool_dir: str) -> None:
        self.spool_dir = spool_dir
        self.home_pid = os.getpid()
        self.run_id = ""
        self._pid = self.home_pid
        self._next_id = 0
        self._stack: List[int] = []
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        #: name -> one-element list bumped inline by the hottest wrappers
        self._tallies: Dict[str, List[int]] = {}

    def _own(self) -> None:
        pid = os.getpid()
        if pid != self._pid:
            # First call in a forked worker: drop the copied parent buffers.
            self._pid = pid
            self._stack = []
            self.spans = []
            self.counts = Counter()
            for tally in self._tallies.values():
                tally[0] = 0

    def tally(self, name: str) -> List[int]:
        """A counter cell for a wrapper too hot for :meth:`count`."""
        return self._tallies.setdefault(name, [0])

    def _fold_tallies(self) -> None:
        for name, tally in self._tallies.items():
            self.counts[name] += tally[0]
            tally[0] = 0

    def begin(self, name: str) -> Span:
        self._own()
        span = [self._next_id, self._stack[-1] if self._stack else None,
                name, time.perf_counter(), 0.0, self.run_id, self._pid]
        self._next_id += 1
        self._stack.append(span[0])
        return span

    def end(self, span: Span) -> None:
        span[4] = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span = self.begin(name)
        try:
            yield
        finally:
            self.end(span)

    def count(self, name: str, amount: int = 1) -> None:
        self._own()
        self.counts[name] += amount

    def reset(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans = []
        self.counts = Counter()
        for tally in self._tallies.values():
            tally[0] = 0

    # -- worker spool -------------------------------------------------------

    def flush_worker(self) -> None:
        """Append a forked worker's buffers to its spool file."""
        if os.getpid() == self.home_pid:
            return
        self._fold_tallies()
        path = os.path.join(self.spool_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"spans": self.spans, "counts": dict(self.counts)}
            ) + "\n")
        self.spans = []
        self.counts = Counter()

    def collect_workers(self) -> None:
        """Fold every worker spool file into this buffer and delete it."""
        self._fold_tallies()
        for entry in sorted(os.listdir(self.spool_dir)):
            if not (entry.startswith("spans-") and entry.endswith(".jsonl")):
                continue
            path = os.path.join(self.spool_dir, entry)
            with open(path, "r", encoding="utf-8") as handle:
                for line in handle:
                    batch = json.loads(line)
                    self.spans.extend(batch["spans"])
                    self.counts.update(batch["counts"])
            os.unlink(path)


# -- wrappers -----------------------------------------------------------------

After = Callable[[Tracer, tuple, Any], None]


def _spanned(name: str, after: Optional[After] = None):
    def factory(tracer: Tracer, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if after is not None:
                after(tracer, args, result)
            return result
        return wrapper
    return factory


def _counted_pair(name: str):
    """Count calls of a two-argument method called millions of times."""
    def factory(tracer: Tracer, original):
        tally = tracer.tally(name)

        @functools.wraps(original)
        def wrapper(self, other):
            tally[0] += 1
            return original(self, other)
        return wrapper
    return factory


def _walked(tracer: Tracer, original):
    """``SubtreeEnumerator.__iter__``: a span per step of the walk."""

    @functools.wraps(original)
    def wrapper(self):
        walk = original(self)
        try:
            while True:
                span = tracer.begin("enumeration.walk")
                try:
                    digits = next(walk)
                except StopIteration:
                    return
                finally:
                    tracer.end(span)
                tracer.count("enumeration.yielded")
                yield digits
        finally:
            walk.close()
    return wrapper


def _accepted(tracer: Tracer, args: tuple, accepted: Any) -> None:
    if accepted:
        tracer.count("pruning.add_accepted")


def _kernel_run(tracer: Tracer, args: tuple, result: Any) -> None:
    kernel = args[0]
    stats = result.stats
    if kernel.resume_from is not None:
        tracer.count("kernel.resumed_runs")
    tracer.count("kernel.states", stats.states_visited)
    tracer.count("kernel.transitions", stats.transitions_fired)
    tracer.count("kernel.prefix_states_reused", stats.prefix_states_reused)


def _batch_done(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.flush_worker()


def targets() -> List[Tuple[Any, str, Callable]]:
    """(owner, attribute, wrapper factory) for every traced layer call."""
    from repro.core import engine as engine_module
    from repro.core.enumeration import SubtreeEnumerator
    from repro.core.pruning import DfsMatcher, PruningPattern, PruningTable
    from repro.dist.coordinator import DistributedSynthesisEngine
    from repro.dist.wire import WireSolution
    from repro.dist.worker import BatchRunner
    from repro.mc.kernel import ExplorationKernel
    from repro.store.projection import SqliteProjection
    from repro.store.store import VerdictStore

    return [
        (PruningTable, "add", _spanned("pruning.add", _accepted)),
        (PruningPattern, "subsumes", _counted_pair("pruning.subsumes_calls")),
        (DfsMatcher, "integrate", _spanned("pruning.integrate")),
        # Imported by name into the engine: patch it where it is looked up.
        (engine_module, "generalise_failure", _spanned("pruning.generalise")),
        (SubtreeEnumerator, "__iter__", _walked),
        (ExplorationKernel, "run", _spanned("kernel.run", _kernel_run)),
        (ExplorationKernel, "fingerprint_visited", _spanned("fingerprint")),
        (VerdictStore, "lookup", _spanned("store.lookup")),
        (VerdictStore, "record", _spanned("store.record")),
        (SqliteProjection, "catch_up", _spanned("store.catch_up")),
        # The coordinator's only blocking point on worker results.
        (DistributedSynthesisEngine, "_next_result", _spanned("dist.wait")),
        (BatchRunner, "run_batch", _spanned("dist.batch", _batch_done)),
        (WireSolution, "to_solution", _spanned("dist.inflate")),
    ]


@contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Patch every target for the block; always restore the originals."""
    saved = []
    try:
        for owner, attribute, factory in targets():
            original = vars(owner)[attribute]
            setattr(owner, attribute, factory(tracer, original))
            saved.append((owner, attribute, original))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


# -- per-layer metrics ---------------------------------------------------------


def span_table(
    spans: List[Span], home_pid: int
) -> Dict[Tuple[str, str], List[float]]:
    """(name, where) -> [calls, inclusive s, self s].

    ``where`` is ``setup`` for spans recorded while the workload was set
    up, ``worker`` for spans of forked workers, ``main`` otherwise.
    """
    children: Dict[Tuple[int, int], float] = defaultdict(float)
    for sid, parent, _name, start, end, _run, pid in spans:
        if parent is not None:
            children[(pid, parent)] += end - start
    table: Dict[Tuple[str, str], List[float]] = {}
    for sid, _parent, name, start, end, run_id, pid in spans:
        if pid != home_pid:
            where = "worker"
        elif run_id.endswith(SETUP_SUFFIX):
            where = "setup"
        else:
            where = "main"
        row = table.setdefault((name, where), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - children[(pid, sid)]
    return table


def layer_metrics(
    tracer: Tracer,
    report: Any,
    traced_run_s: float,
    untraced_run_s: float,
    workers: int,
    sequential_evaluated: int,
) -> Dict[str, float]:
    """Every per-layer metric of one traced call."""
    by_name: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for (name, _where), row in span_table(tracer.spans, tracer.home_pid).items():
        total = by_name[name]
        for index, value in enumerate(row):
            total[index] += value
    counts = tracer.counts

    def calls(name: str) -> int:
        return int(by_name[name][0]) if name in by_name else 0

    def self_s(name: str) -> float:
        return by_name[name][2] if name in by_name else 0.0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    states = counts["kernel.states"]
    busy = by_name["dist.batch"][1] if "dist.batch" in by_name else 0.0
    evaluated = report.evaluated if report is not None else 0
    covered = report.covered if report is not None else 0
    return {
        "pruning.add_calls": calls("pruning.add"),
        "pruning.add_accepted": counts["pruning.add_accepted"],
        "pruning.add_s": self_s("pruning.add"),
        "pruning.subsumes_calls": counts["pruning.subsumes_calls"],
        "pruning.integrate_s": self_s("pruning.integrate"),
        "pruning.generalise_calls": calls("pruning.generalise"),
        "pruning.generalise_s": self_s("pruning.generalise"),
        "enumeration.yielded": counts["enumeration.yielded"],
        "enumeration.pruned_failure": (
            report.pruned_failure if report is not None else 0
        ),
        "enumeration.skipped_success": (
            report.skipped_success if report is not None else 0
        ),
        "enumeration.dispatch_ratio": ratio(evaluated, covered),
        "enumeration.walk_s": self_s("enumeration.walk"),
        "fingerprint.calls": calls("fingerprint"),
        "fingerprint.s": self_s("fingerprint"),
        "kernel.runs": calls("kernel.run"),
        "kernel.resumed_runs": counts["kernel.resumed_runs"],
        "kernel.run_s": self_s("kernel.run"),
        "kernel.states": states,
        "kernel.transitions": counts["kernel.transitions"],
        "kernel.prefix_states_reused": counts["kernel.prefix_states_reused"],
        "kernel.states_per_s": ratio(states, self_s("kernel.run")),
        "store.lookup_calls": calls("store.lookup"),
        "store.lookup_s": self_s("store.lookup"),
        "store.record_calls": calls("store.record"),
        "store.record_s": self_s("store.record"),
        "store.catch_up_calls": calls("store.catch_up"),
        "store.catch_up_s": self_s("store.catch_up"),
        "dist.batches": calls("dist.batch"),
        "dist.wait_s": self_s("dist.wait"),
        "dist.worker_busy_s": busy,
        "dist.worker_util": ratio(busy, workers * traced_run_s),
        "dist.inflate_s": self_s("dist.inflate"),
        "dist.redundant_checks": (
            evaluated - sequential_evaluated if workers else 0
        ),
        "engine.self_s": self_s("engine"),
        "trace.overhead_ratio": ratio(traced_run_s, untraced_run_s),
    }


def render_table(tracer: Tracer, run_s: float) -> List[str]:
    """Self time per span; the engine's own remainder is its own row."""
    table = span_table(tracer.spans, tracer.home_pid)
    order = {"main": 0, "worker": 1, "setup": 2}
    lines = [f"{'layer span':<24}{'where':>8}{'calls':>9}{'self s':>10}"
             f"{'share':>8}"]
    attributed = 0.0
    for (name, where), (count, _inclusive, own) in sorted(
        table.items(), key=lambda item: (order[item[0][1]], -item[1][2])
    ):
        label = "engine (self)" if name == "engine" else name
        share = "-"
        if where == "main" and run_s:
            attributed += own
            share = f"{own / run_s:.1%}"
        lines.append(f"{label:<24}{where:>8}{int(count):>9}{own:>10.3f}"
                     f"{share:>8}")
    outside = run_s - attributed
    lines.append(f"{'outside any span':<24}{'main':>8}{'':>9}{outside:>10.3f}"
                 f"{(outside / run_s if run_s else 0.0):>8.1%}")
    return lines
