"""Tests for pruning patterns, the table, and the incremental DFS matcher."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidate import WILDCARD, CandidateVector
from repro.core.enumeration import SubtreeEnumerator
from repro.core.pruning import DfsMatcher, PruningPattern, PruningTable
from repro.util.itertools2 import mixed_radix_decode, product_size


class TestPruningPattern:
    def test_from_candidate_drops_wildcards(self):
        vector = CandidateVector([1, WILDCARD, 0])
        pattern = PruningPattern.from_candidate(vector)
        assert pattern.constraints == ((0, 1), (2, 0))
        assert pattern.max_position == 2

    def test_empty_pattern(self):
        pattern = PruningPattern(())
        assert pattern.is_empty
        assert pattern.matches(CandidateVector([0, 0]))

    def test_matching_superset_semantics(self):
        # The paper's core insight: <1@A> prunes any <1@A, 2@*, ...>.
        pattern = PruningPattern([(0, 0)])
        assert pattern.matches(CandidateVector([0, 1]))
        assert pattern.matches(CandidateVector([0]))
        assert not pattern.matches(CandidateVector([1, 0]))

    def test_candidate_wildcard_does_not_satisfy_constraint(self):
        pattern = PruningPattern([(1, 0)])
        assert not pattern.matches(CandidateVector([0, WILDCARD]))
        assert not pattern.matches(CandidateVector([0]))

    def test_duplicate_position_rejected(self):
        with pytest.raises(ValueError):
            PruningPattern([(0, 1), (0, 2)])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PruningPattern([(-1, 0)])

    def test_subsumes(self):
        general = PruningPattern([(0, 1)])
        specific = PruningPattern([(0, 1), (1, 0)])
        assert general.subsumes(specific)
        assert not specific.subsumes(general)

    def test_equality_hash(self):
        assert PruningPattern([(1, 2), (0, 1)]) == PruningPattern([(0, 1), (1, 2)])
        assert hash(PruningPattern([(0, 1)])) == hash(PruningPattern([(0, 1)]))


class TestPruningTable:
    def test_add_and_match(self):
        table = PruningTable()
        assert table.add(PruningPattern([(0, 1)]))
        assert table.matches(CandidateVector([1, 0])) is not None
        assert table.matches(CandidateVector([0, 0])) is None

    def test_exact_duplicates_rejected(self):
        table = PruningTable()
        table.add(PruningPattern([(0, 1)]))
        assert not table.add(PruningPattern([(0, 1)]))
        assert len(table) == 1

    def test_subsumption_rejects_implied(self):
        table = PruningTable(subsumption=True)
        table.add(PruningPattern([(0, 1)]))
        assert not table.add(PruningPattern([(0, 1), (1, 0)]))
        assert len(table) == 1

    def test_subsumption_disabled_keeps_implied(self):
        table = PruningTable(subsumption=False)
        table.add(PruningPattern([(0, 1)]))
        assert table.add(PruningPattern([(0, 1), (1, 0)]))
        assert len(table) == 2

    def test_versioning_and_delta(self):
        table = PruningTable()
        version = table.version
        table.add(PruningPattern([(0, 0)]))
        table.add(PruningPattern([(1, 1)]))
        delta = table.patterns_since(version)
        assert len(delta) == 2
        assert table.patterns_since(table.version) == []


class TestDfsMatcher:
    def test_push_fires_on_complete_pattern(self):
        matcher = DfsMatcher([PruningPattern([(0, 1), (1, 0)])])
        assert not matcher.push(0, 1)
        assert matcher.push(1, 0)
        matcher.pop(1, 0)
        assert not matcher.any_matched
        assert not matcher.push(1, 1)

    def test_pop_restores(self):
        matcher = DfsMatcher([PruningPattern([(0, 1)])])
        assert matcher.push(0, 1)
        matcher.pop(0, 1)
        assert not matcher.any_matched
        assert not matcher.push(0, 0)

    def test_integrate_with_satisfied_prefix(self):
        matcher = DfsMatcher()
        matcher.push(0, 1)
        matcher.push(1, 0)
        matcher.integrate([PruningPattern([(0, 1)])], current_path=(1, 0))
        assert matcher.any_matched
        # Backtrack above the constraint: no longer matched.
        matcher.pop(1, 0)
        matcher.pop(0, 1)
        assert not matcher.any_matched
        # Re-push a matching digit: matched again.
        assert matcher.push(0, 1)

    def test_fully_matched_helper(self):
        matcher = DfsMatcher([PruningPattern([(0, 1), (2, 0)])])
        assert matcher.fully_matched((1, 9, 0))
        assert not matcher.fully_matched((1, 9, 1))
        assert not matcher.fully_matched((1,))


class TestGeneraliseFailure:
    """Conflict generalisation: replay the counterexample, constrain only
    the holes it executes."""

    @staticmethod
    def _fork_setup():
        """s0 --H0--> {left: 10, right: 20}; 10 --HA--> {err, ok};
        20 --HB--> {ok, err}.  Three holes, but any one failure trace
        executes exactly two of them."""
        from repro.core.action import Action
        from repro.core.discovery import CandidateResolver, HoleRegistry
        from repro.core.hole import Hole
        from repro.mc.properties import DeadlockPolicy, Invariant
        from repro.mc.rule import Rule
        from repro.mc.system import TransitionSystem

        h0 = Hole("h0", [Action("L", payload=10), Action("R", payload=20)])
        ha = Hole("ha", [Action("x", payload=-1), Action("y", payload=99)])
        hb = Hole("hb", [Action("x", payload=98), Action("y", payload=-1)])

        def chooser(hole):
            def apply(state, ctx, _hole=hole):
                return [ctx.resolve(_hole).payload]

            return apply

        system = TransitionSystem(
            name="fork",
            initial_states=[0],
            rules=[
                Rule("r0", guard=lambda s: s == 0, apply=chooser(h0)),
                Rule("ra", guard=lambda s: s == 10, apply=chooser(ha)),
                Rule("rb", guard=lambda s: s == 20, apply=chooser(hb)),
            ],
            invariants=[Invariant("no-err", lambda s: s != -1)],
            deadlock=DeadlockPolicy.fail(quiescent=lambda s: s in (98, 99)),
        )
        registry = HoleRegistry()
        for hole in (h0, ha, hb):
            registry.position_of(hole, register=True)
        return system, registry, CandidateResolver

    def _check(self, digits):
        from repro.core.candidate import CandidateVector
        from repro.core.pruning import generalise_failure
        from repro.mc.kernel import ExplorationKernel

        system, registry, CandidateResolver = self._fork_setup()
        resolver = CandidateResolver(registry, CandidateVector.from_digits(digits))
        result = ExplorationKernel(system, resolver=resolver).run()
        assert result.is_failure
        return generalise_failure(system, registry, digits, result)

    def test_untouched_hole_dropped_from_pattern(self):
        # <L, x, ?> fails through h0 and ha only; hb's assignment (either
        # value) never executes, so the pattern must not constrain it.
        assert self._check((0, 0, 0)).constraints == ((0, 0), (1, 0))
        assert self._check((0, 0, 1)).constraints == ((0, 0), (1, 0))

    def test_other_branch_symmetry(self):
        # <R, ?, y> fails through h0 and hb only.
        assert self._check((1, 0, 1)).constraints == ((0, 1), (2, 1))
        assert self._check((1, 1, 1)).constraints == ((0, 1), (2, 1))

    def test_max_position_bounds_forcing_prefix(self):
        # The generalised pattern's last constrained position marks the end
        # of the shortest failure-forcing assignment prefix — the subtree
        # enumerator cuts everything below it.  <L, x, *> forces the
        # counterexample, so the pattern fires at position 1, not 2.
        pattern = self._check((0, 0, 1))
        assert pattern.max_position == 1

    def test_coverage_failure_is_not_generalised(self):
        from repro.mc.result import FailureKind, Verdict, VerificationResult
        from repro.core.pruning import generalise_failure

        system, registry, _ = self._fork_setup()
        result = VerificationResult(
            verdict=Verdict.FAILURE,
            failure_kind=FailureKind.COVERAGE,
            message="coverage not met: x",
        )
        assert generalise_failure(system, registry, (0, 0, 0), result) is None

    def test_deadlock_includes_final_state_holes(self):
        from repro.core.action import Action
        from repro.core.candidate import CandidateVector
        from repro.core.discovery import CandidateResolver, HoleRegistry
        from repro.core.hole import Hole
        from repro.core.pruning import generalise_failure
        from repro.mc.kernel import ExplorationKernel
        from repro.mc.properties import DeadlockPolicy
        from repro.mc.rule import Rule
        from repro.mc.system import TransitionSystem

        h0 = Hole("h0", [Action("go", payload=30)])
        hd = Hole("hd", [Action("stall", payload=None), Action("run", payload=77)])

        def apply0(state, ctx):
            return [ctx.resolve(h0).payload]

        def applyd(state, ctx):
            target = ctx.resolve(hd).payload
            return [] if target is None else [target]

        system = TransitionSystem(
            name="stall",
            initial_states=[0],
            rules=[
                Rule("r0", guard=lambda s: s == 0, apply=apply0),
                Rule("rd", guard=lambda s: s == 30, apply=applyd),
            ],
            deadlock=DeadlockPolicy.fail(quiescent=lambda s: s == 77),
        )
        registry = HoleRegistry()
        registry.position_of(h0, register=True)
        registry.position_of(hd, register=True)
        digits = (0, 0)  # go, then stall: deadlock at 30
        resolver = CandidateResolver(registry, CandidateVector.from_digits(digits))
        result = ExplorationKernel(system, resolver=resolver).run()
        assert result.is_failure
        # hd never fires a transition, but its choice is what blocks the
        # escape from state 30 — the conflict must constrain it.
        pattern = generalise_failure(system, registry, digits, result)
        assert pattern.constraints == ((0, 0), (1, 0))

    def test_hole_free_trace_yields_empty_pattern(self):
        # Defensive path: a trace executing no holes means the skeleton
        # fails under every assignment (in practice the initial run
        # catches this first and reports an inherent failure).
        from repro.core.discovery import HoleRegistry
        from repro.core.pruning import generalise_failure
        from repro.mc.kernel import ExplorationKernel
        from repro.mc.properties import Invariant
        from repro.mc.rule import Rule
        from repro.mc.system import TransitionSystem

        system = TransitionSystem(
            name="doomed",
            initial_states=[0],
            rules=[Rule("bad", guard=lambda s: s == 0, apply=lambda s, ctx: [-1])],
            invariants=[Invariant("no-err", lambda s: s != -1)],
        )
        result = ExplorationKernel(system).run()
        assert result.is_failure
        pattern = generalise_failure(system, HoleRegistry(), (), result)
        assert pattern is not None and pattern.is_empty

    def test_missing_trace_falls_back(self):
        from repro.core.candidate import CandidateVector
        from repro.core.discovery import CandidateResolver
        from repro.core.pruning import generalise_failure
        from repro.mc.kernel import ExplorationKernel

        system, registry, _ = self._fork_setup()
        resolver = CandidateResolver(registry, CandidateVector.from_digits((0, 0, 0)))
        result = ExplorationKernel(
            system, resolver=resolver, record_traces=False
        ).run()
        assert result.is_failure and result.trace is None
        assert generalise_failure(system, registry, (0, 0, 0), result) is None


# -- differential property test: subtree skipping == flat matching ----------

pattern_strategy = st.lists(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 2)),
        min_size=1,
        max_size=3,
        unique_by=lambda c: c[0],
    ),
    max_size=6,
)

radices_strategy = st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(radices_strategy, pattern_strategy)
def test_subtree_walker_equals_flat_matching(radices, raw_patterns):
    """The DFS subtree skipper must yield exactly the flat-match survivors."""
    patterns = []
    for raw in raw_patterns:
        constraints = [
            (position, action % radix)
            for position, action in raw
            if position < len(radices)
            for radix in [radices[position]]
        ]
        if constraints:
            patterns.append(PruningPattern(constraints))

    matcher = DfsMatcher(patterns)
    enumerator = SubtreeEnumerator(radices, [("fail", matcher)])
    walked = list(enumerator)

    expected = []
    for index in range(product_size(radices)):
        digits = mixed_radix_decode(index, radices)
        vector = CandidateVector.from_digits(digits)
        if not any(p.matches(vector) for p in patterns):
            expected.append(digits)

    assert walked == expected
    assert enumerator.counters.yielded == len(expected)
    assert enumerator.counters.skipped["fail"] == product_size(radices) - len(expected)


# -- differential property test: subset probe == linear subsumption scan ----


class LinearScanTable:
    """Oracle: the table's accept/reject rule as a plain linear scan."""

    def __init__(self, subsumption):
        self.subsumption = subsumption
        self.patterns = []

    def add(self, pattern):
        if any(existing == pattern for existing in self.patterns):
            return False
        if self.subsumption and any(
            set(existing.constraints) <= set(pattern.constraints)
            for existing in self.patterns
        ):
            return False
        self.patterns.append(pattern)
        return True


constraint_set_strategy = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 2)),
    max_size=8,
    unique_by=lambda c: c[0],
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(constraint_set_strategy, min_size=1, max_size=12),
    st.lists(st.integers(0, 11), max_size=80),
    st.booleans(),
)
def test_subset_probe_equals_linear_scan(pool, picks, subsumption):
    """Streams drawn from a small pool repeat patterns (duplicates); widths
    run from the empty pattern to 8, so a stream crosses from the scan
    fallback (``2 ** width`` above the table size) to the subset probe."""
    stream = [PruningPattern(pool[pick % len(pool)]) for pick in picks]
    table = PruningTable(subsumption=subsumption)
    oracle = LinearScanTable(subsumption)
    for pattern in stream:
        assert table.add(pattern) == oracle.add(pattern), pattern
    assert table.all_patterns() == oracle.patterns


class TestSubsumptionStrategy:
    """Which of the two exact strategies ``add`` takes, by table size."""

    @staticmethod
    def _counting(monkeypatch):
        calls = []
        original = PruningPattern.subsumes

        def subsumes(self, other):
            calls.append(self)
            return original(self, other)

        monkeypatch.setattr(PruningPattern, "subsumes", subsumes)
        return calls

    @staticmethod
    def _singletons(count):
        table = PruningTable()
        for position in range(count):
            assert table.add(PruningPattern([(position, 1)]))
        return table

    def test_narrow_pattern_probes_without_scanning(self, monkeypatch):
        table = self._singletons(20)
        calls = self._counting(monkeypatch)
        assert table.add(PruningPattern([(30, 0), (31, 0)]))
        assert not table.add(PruningPattern([(3, 1), (30, 1)]))
        assert calls == []

    def test_wide_pattern_falls_back_to_the_scan(self, monkeypatch):
        table = self._singletons(20)
        calls = self._counting(monkeypatch)
        # 2 ** 5 probes exceed the 20 stored patterns: scan instead.
        assert table.add(PruningPattern([(p, 0) for p in range(30, 35)]))
        assert len(calls) == 20
