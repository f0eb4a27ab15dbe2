"""Absolute pins for the default configuration.

The equivalence suites compare two modes of the current code with each
other; these tests compare the code with recorded numbers instead, so a
change that moves *both* modes the same way still shows.  Every value
below was recorded from the default configuration and must not move
unless a change means to alter exploration or synthesis behaviour:

* verify: verdict, failure kind, states, transitions, rule attempts and
  counterexample length for each catalog protocol (plus the seeded-bug
  builds, the eviction extension and symmetry off), BFS and DFS;
* synthesis: the candidate/pattern economy and the solution set of
  every catalog skeleton, under each acceleration toggle, with
  fingerprints on, and on the thread and process backends.

Solution sets are pinned as a short digest (see :func:`solution_digest`)
next to their size, so a mismatch names the skeleton and the count.
"""

import hashlib
import json

import pytest

from repro.core import SynthesisConfig, SynthesisEngine
from repro.core.parallel import ParallelSynthesisEngine
from repro.dist import DistributedSynthesisEngine, SystemSpec
from repro.mc.kernel import make_explorer
from repro.mc.result import FailureKind, Verdict
from repro.protocols.catalog import PROTOCOL_BUILDERS, build_skeleton
from repro.protocols.german import build_german_system
from repro.protocols.moesi import build_moesi_system

SUCCESS, FAILURE = Verdict.SUCCESS, Verdict.FAILURE
INVARIANT = FailureKind.INVARIANT

SYSTEMS = {
    "mutex": lambda: PROTOCOL_BUILDERS["mutex"](2),
    "vi": lambda: PROTOCOL_BUILDERS["vi"](2),
    "msi@2": lambda: PROTOCOL_BUILDERS["msi"](2),
    "msi@3": lambda: PROTOCOL_BUILDERS["msi"](3),
    "msi-evict": lambda: PROTOCOL_BUILDERS["msi"](2, evictions=True),
    "mesi": lambda: PROTOCOL_BUILDERS["mesi"](2),
    "moesi": lambda: PROTOCOL_BUILDERS["moesi"](2),
    "german": lambda: PROTOCOL_BUILDERS["german"](2),
    "moesi-bug": lambda: build_moesi_system(2, bug="no-owner-inv"),
    "german-bug": lambda: build_german_system(2, bug="stale-shared-grant"),
    "msi-nosym": lambda: PROTOCOL_BUILDERS["msi"](2, symmetry=False),
    "german-nosym": lambda: PROTOCOL_BUILDERS["german"](2, symmetry=False),
}

#: (system, strategy) -> (verdict, failure kind, states, transitions,
#: rules attempted, counterexample steps)
VERIFY_PINS = {
    ("mutex", "bfs"): (SUCCESS, None, 11, 20, 19, None),
    ("mutex", "dfs"): (SUCCESS, None, 11, 20, 19, None),
    ("vi", "bfs"): (SUCCESS, None, 12, 18, 17, None),
    ("vi", "dfs"): (SUCCESS, None, 12, 18, 17, None),
    ("msi@2", "bfs"): (SUCCESS, None, 59, 111, 111, None),
    ("msi@2", "dfs"): (SUCCESS, None, 59, 111, 111, None),
    ("msi@3", "bfs"): (SUCCESS, None, 311, 884, 884, None),
    ("msi@3", "dfs"): (SUCCESS, None, 311, 884, 884, None),
    ("msi-evict", "bfs"): (SUCCESS, None, 209, 446, 446, None),
    ("msi-evict", "dfs"): (SUCCESS, None, 209, 446, 446, None),
    ("mesi", "bfs"): (SUCCESS, None, 70, 135, 135, None),
    ("mesi", "dfs"): (SUCCESS, None, 70, 135, 135, None),
    ("moesi", "bfs"): (SUCCESS, None, 83, 158, 158, None),
    ("moesi", "dfs"): (SUCCESS, None, 83, 158, 158, None),
    ("german", "bfs"): (SUCCESS, None, 122, 228, 222, None),
    ("german", "dfs"): (SUCCESS, None, 122, 228, 222, None),
    ("moesi-bug", "bfs"): (FAILURE, INVARIANT, 67, 118, 118, 13),
    ("moesi-bug", "dfs"): (FAILURE, INVARIANT, 47, 64, 64, 14),
    ("german-bug", "bfs"): (FAILURE, INVARIANT, 26, 38, 36, 6),
    ("german-bug", "dfs"): (FAILURE, INVARIANT, 29, 34, 32, 20),
    ("msi-nosym", "bfs"): (SUCCESS, None, 112, 208, 208, None),
    ("msi-nosym", "dfs"): (SUCCESS, None, 112, 208, 208, None),
    ("german-nosym", "bfs"): (SUCCESS, None, 237, 440, 432, None),
    ("german-nosym", "dfs"): (SUCCESS, None, 237, 440, 432, None),
}


def solution_digest(report, fingerprints=False):
    """First 16 hex digits of the sha256 of the sorted solution rows.

    A row is ``[sorted [hole, action] pairs, states_visited]``, with the
    solution fingerprint appended when ``fingerprints`` is set.
    """
    rows = sorted(
        [sorted(map(list, s.assignment)), s.states_visited]
        + ([s.fingerprint] if fingerprints else [])
        for s in report.solutions
    )
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def economy(report):
    """(evaluated, pruned_failure, skipped_success, passes,
    failure_patterns, success_patterns, solutions, solution digest)"""
    return (
        report.evaluated,
        report.pruned_failure,
        report.skipped_success,
        report.passes,
        report.failure_patterns,
        report.success_patterns,
        len(report.solutions),
        solution_digest(report),
    )


#: skeleton -> economy() of a default-configuration sequential run
SYNTH_PINS = {
    "figure2": (10, 36, 0, 4, 5, 1, 1, "7ae69f54b5bae605"),
    "mutex": (13, 0, 0, 2, 8, 1, 1, "228457db2de32266"),
    "vi": (58, 90, 0, 4, 40, 2, 2, "19fca2e64f5e4a20"),
    "msi-tiny": (25, 0, 0, 2, 18, 3, 3, "2409dbfb573fb0e2"),
    "msi-read-tiny": (25, 0, 0, 2, 20, 1, 1, "0916a25ceceead02"),
    "msi-small": (4249, 273912, 0, 6, 3183, 126, 126, "485851b6c4d7c039"),
    "msi-evict": (184, 52889, 80, 4, 133, 14, 14, "bac823ceb5a7ae2f"),
    "mesi": (28, 0, 0, 2, 23, 1, 1, "96238fcad6cfdff4"),
    "moesi-small": (56, 0, 0, 2, 49, 1, 1, "34f855d077240a74"),
    "german-small": (22, 0, 0, 2, 17, 1, 1, "dea248c5d446dc7a"),
}

#: one toggle away from the default; all but pruning-off keep the default
#: economy exactly
FLAGS = {
    "generalise-off": dict(generalise_conflicts=False),
    "prefix-reuse-off": dict(prefix_reuse=False),
    "dfs": dict(explorer="dfs"),
    "packed-off": dict(packed=False),
    "naive-match": dict(naive_match=True),
    "pruning-off": dict(pruning=False),
}

#: skeleton -> economy() of a run with pruning off
UNPRUNED_PINS = {
    "figure2": (24, 0, 0, 3, 0, 0, 1, "7ae69f54b5bae605"),
    "vi": (108, 0, 0, 2, 0, 0, 2, "19fca2e64f5e4a20"),
    "msi-tiny": (21, 0, 0, 1, 0, 0, 3, "2409dbfb573fb0e2"),
}

#: skeleton -> economy() of a run with conflict generalisation off, for
#: the one skeleton whose counts it changes (the solutions stay the same)
GENERALISE_OFF_PINS = {
    "msi-evict": (1473, 51600, 80, 4, 1422, 14, 14, "bac823ceb5a7ae2f"),
}

#: skeleton -> (solutions, solution_digest(fingerprints=True))
FINGERPRINT_PINS = {
    "figure2": (1, "afa21a2251ba6118"),
    "mutex": (1, "021b81b02f7c3d50"),
    "vi": (2, "c31a7c97fff30722"),
    "msi-tiny": (3, "35e6c7bfc368149c"),
    "german-small": (1, "1e7d2662c87d646b"),
}


@pytest.mark.parametrize(
    "label, strategy", list(VERIFY_PINS),
    ids=[f"{label}-{strategy}" for label, strategy in VERIFY_PINS],
)
def test_verify_pinned(label, strategy):
    result = make_explorer(strategy, SYSTEMS[label]()).run()
    steps = len(result.trace.steps) if result.trace is not None else None
    assert (
        result.verdict,
        result.failure_kind,
        result.stats.states_visited,
        result.stats.transitions_fired,
        result.stats.rules_attempted,
        steps,
    ) == VERIFY_PINS[label, strategy]


@pytest.mark.parametrize("name", list(SYNTH_PINS))
def test_synthesis_pinned(name):
    report = SynthesisEngine(build_skeleton(name), SynthesisConfig()).run()
    assert economy(report) == SYNTH_PINS[name]


@pytest.mark.parametrize("flag", list(FLAGS))
@pytest.mark.parametrize("name", list(UNPRUNED_PINS))
def test_synthesis_toggles_pinned(name, flag):
    report = SynthesisEngine(
        build_skeleton(name), SynthesisConfig(**FLAGS[flag])
    ).run()
    pins = UNPRUNED_PINS if flag == "pruning-off" else SYNTH_PINS
    assert economy(report) == pins[name]


@pytest.mark.parametrize("name", list(GENERALISE_OFF_PINS))
def test_generalise_off_pinned(name):
    report = SynthesisEngine(
        build_skeleton(name), SynthesisConfig(generalise_conflicts=False)
    ).run()
    assert economy(report) == GENERALISE_OFF_PINS[name]


@pytest.mark.parametrize("name", list(FINGERPRINT_PINS))
def test_fingerprints_pinned(name):
    report = SynthesisEngine(
        build_skeleton(name), SynthesisConfig(compute_fingerprints=True)
    ).run()
    assert (
        len(report.solutions), solution_digest(report, fingerprints=True)
    ) == FINGERPRINT_PINS[name]


@pytest.mark.parametrize("backend", ["threads", "processes"])
@pytest.mark.parametrize("name", ["mutex", "msi-tiny", "german-small"])
def test_backend_solutions_pinned(name, backend):
    """Which candidates the parallel backends evaluate depends on timing,
    so only their solution sets are pinned."""
    if backend == "threads":
        report = ParallelSynthesisEngine(
            build_skeleton(name), SynthesisConfig(), threads=2
        ).run()
    else:
        report = DistributedSynthesisEngine(
            SystemSpec(name), SynthesisConfig(), workers=2, min_batch_size=2
        ).run()
    solutions, digest = SYNTH_PINS[name][-2:]
    assert (len(report.solutions), solution_digest(report)) == (
        solutions, digest
    )
