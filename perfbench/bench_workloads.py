"""The benchmark's workloads: inputs, timed calls, and correctness checks.

Every workload drives the public entry points (``SynthesisEngine``,
``DistributedSynthesisEngine``) on Table I's msi-small row.  Each timed
call follows its own set-up (building the system and the engine), and
every output is checked against the pinned reference in
``references.json``.

The inputs do not depend on the seed: they are Table I's fixed row.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.engine import SynthesisConfig, SynthesisEngine, SynthesisObserver
from repro.dist import DistributedSynthesisEngine, SystemSpec
from repro.protocols.catalog import SKELETON_BUILDERS

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES_PATH = os.path.join(HERE, "references.json")

SKELETON = "msi-small"
SKELETON_REPLICAS = 2
#: worker processes on ``synth-dist``; never more than the 2-CPU target host.
DIST_WORKERS = 2


def synth_config(
    store_path: Optional[str] = None, solution_limit: Optional[int] = None
) -> SynthesisConfig:
    """Table I's headline configuration: every default acceleration on,
    solution fingerprints computed."""
    return SynthesisConfig(compute_fingerprints=True, store_path=store_path,
                           solution_limit=solution_limit)


def solution_digest(solutions: Sequence[Any]) -> str:
    """SHA-256 over the sorted ``(assignment, fingerprint)`` pairs."""
    pairs = sorted(
        [[list(pair) for pair in solution.assignment], solution.fingerprint]
        for solution in solutions
    )
    data = json.dumps(pairs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def load_references(path: str = REFERENCES_PATH) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def check_synthesis(
    report: Any, reference: Dict[str, Any], probe: bool = False
) -> Optional[str]:
    """The reason ``report`` differs from the pinned synthesis reference.

    A probe (a run limited to one solution) must stop at exactly one.
    """
    if report.inherent_failure:
        return "synthesis reported an inherent failure"
    if probe:
        if len(report.solutions) != 1 or not report.stopped_early:
            return f"probe stopped with {len(report.solutions)} solutions"
        return None
    if report.stopped_early:
        return "synthesis stopped before covering the candidate space"
    if len(report.solutions) != reference["solutions"]:
        return (
            f"{len(report.solutions)} solutions, reference "
            f"{reference['solutions']}"
        )
    digest = solution_digest(report.solutions)
    if digest != reference["digest"]:
        return f"solution digest {digest[:12]} differs from the reference"
    return None


# -- timing -----------------------------------------------------------------


class FirstResult(SynthesisObserver):
    """Records when the first solution reaches the caller's observer."""

    def __init__(self) -> None:
        self.first: Optional[float] = None

    def on_solution(self, solution, holes) -> None:
        if self.first is None:
            self.first = time.perf_counter()


@dataclass
class Outcome:
    """One timed call."""

    run_s: float
    first_result_s: float
    #: one entry per checked operation: ``None`` or the reason it failed
    problems: List[Optional[str]] = field(default_factory=list)
    #: the synthesis report, for the traced run's per-layer counts
    report: Any = None


#: a zero-argument factory of the context manager wrapped around each
#: timed public call (the traced run's root span; a no-op otherwise)
Root = Callable[[], Any]
_no_root: Root = nullcontext


# -- workloads --------------------------------------------------------------


class Workload:
    """One set of inputs: one synthesis engine run per call.  This base
    is ``synth-cold``'s shared path; subclasses change the engine."""

    name = ""
    why = ""
    #: worker processes the workload's engine starts
    workers = 0
    #: whether ``setup(probe=True)`` builds a call that stops at its first
    #: result after the same path a full call takes to it.  The sequential
    #: engine stops right after its observer sees the solution that
    #: reaches the limit, so a one-solution run times exactly a full run's
    #: path to its first solution.
    probes = True

    def __init__(self, scratch: str, references: Dict[str, Any]) -> None:
        self.scratch = scratch
        self.references = references

    def _store_path(self) -> Optional[str]:
        return None

    def _engine(self, observer: FirstResult, solution_limit: Optional[int]):
        system = SKELETON_BUILDERS[SKELETON](SKELETON_REPLICAS)
        return SynthesisEngine(
            system, synth_config(self._store_path(), solution_limit),
            observer=observer,
        )

    def setup(self, probe: bool = False) -> Any:
        """Build the system and engine of one call (a probe call when
        ``probe`` is set; see :attr:`probes`)."""
        observer = FirstResult()
        return self._engine(observer, 1 if probe else None), observer

    def release(self, state: Any) -> None:
        """Dispose of a set-up once its call, if any, is done (untimed)."""
        engine, _observer = state
        engine.core.close_store()

    def call(self, state: Any, root: Root = _no_root) -> Outcome:
        engine, observer = state
        report = None
        problem: Optional[str] = None
        with root():
            begin = time.perf_counter()
            try:
                report = engine.run()
            except Exception as exc:  # counted as a failed operation
                problem = f"raised {type(exc).__name__}: {exc}"
            end = time.perf_counter()
        if problem is None:
            problem = check_synthesis(
                report, self.references["synthesis"],
                probe=engine.config.solution_limit is not None,
            )
        first = observer.first if observer.first is not None else end
        return Outcome(end - begin, first - begin, [problem], report)


class SynthCold(Workload):
    name = "synth-cold"
    why = ("Table I headline row: msi-small, sequential, fingerprints on, no "
           "store; enumeration, pruning, kernel and fingerprinting")


class SynthStore(Workload):
    name = "synth-store"
    why = ("synth-cold against a verdict store that starts empty: the store's "
           "write path (lookup misses, record, catch-up) on every candidate")

    def _store_path(self) -> Optional[str]:
        return tempfile.mkdtemp(prefix="store-", dir=self.scratch)

    def release(self, state: Any) -> None:
        super().release(state)
        engine, _observer = state
        shutil.rmtree(engine.config.store_path, ignore_errors=True)


class SynthDist(Workload):
    name = "synth-dist"
    why = ("synth-cold on the processes backend with 2 workers: the only "
           "workload that runs repro.dist (dispatch, wait, inflate)")
    workers = DIST_WORKERS
    # The coordinator hands solutions to its observer when a pass ends, so
    # a one-solution run does not follow a full run's path.
    probes = False

    def _engine(self, observer: FirstResult, solution_limit: Optional[int]):
        return DistributedSynthesisEngine(
            SystemSpec(SKELETON, SKELETON_REPLICAS),
            synth_config(solution_limit=solution_limit),
            workers=self.workers,
            observer=observer,
            # Forked workers inherit the traced run's class wrappers.
            start_method="fork",
        )


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (SynthCold, SynthStore, SynthDist)
}
