"""The packed runtime's per-state fingerprint memo.

A packed explorer fingerprints its visited set from per-slab-id values
the shared :class:`~repro.mc.packed.PackedRuntime` memoises, so every
state is decoded, canonicalised and hashed once per system however many
runs visit it.  The values must stay bit-identical to hashing the
object-mode visited set.
"""

from pathlib import Path

import pytest

import repro.mc.packed as packed_module
from repro.core.engine import SynthesisConfig, SynthesisEngine
from repro.fuzz import build_reference_system
from repro.fuzz.corpus import load_entry
from repro.mc.context import FixedResolver
from repro.mc.hashing import fingerprint_state_set
from repro.mc.kernel import make_explorer
from repro.mc.packed import PackedRuntime
from repro.protocols.catalog import build_protocol, build_skeleton_with_holes

#: a corpus spec on the opaque-global codec
OPAQUE_CORPUS_ENTRY = (
    Path(__file__).resolve().parents[1] / "fuzz" / "corpus" / "fuzz-s2.json"
)


def _opaque_fuzz_system():
    spec = load_entry(OPAQUE_CORPUS_ENTRY).spec
    assert spec.codec == "opaque"
    return build_reference_system(spec)


VERIFY_SYSTEMS = {
    "mutex": lambda: build_protocol("mutex", 3),
    "fuzz-opaque": _opaque_fuzz_system,
}


def _fingerprints(builder, resolver_for=lambda holes: None):
    """(object-mode set fingerprint, packed fingerprint_visited twice)."""
    system, holes = builder()
    obj = make_explorer("bfs", system, resolver=resolver_for(holes), packed=False)
    obj.run()
    system, holes = builder()
    packed = make_explorer("bfs", system, resolver=resolver_for(holes), packed=True)
    packed.run()
    assert packed.packed_runtime is not None
    return (
        fingerprint_state_set(obj.visited_states),
        packed.fingerprint_visited(),
        packed.fingerprint_visited(),  # every state now a memo hit
    )


@pytest.mark.parametrize("name", sorted(VERIFY_SYSTEMS))
def test_packed_matches_object_fingerprint(name):
    expected, first, memoised = _fingerprints(lambda: (VERIFY_SYSTEMS[name](), []))
    assert first == expected
    assert memoised == expected


def test_msi_tiny_solutions_match_object_fingerprint():
    """Each packed synthesis solution's fingerprint, computed from the
    memo shared by all of the run's checks, equals hashing the visited set
    of an object-mode check of that solution."""
    system, _holes = build_skeleton_with_holes("msi-tiny")
    report = SynthesisEngine(
        system, SynthesisConfig(packed=True, compute_fingerprints=True)
    ).run()
    assert len(report.solutions) == 3
    for solution in report.solutions:
        chosen = dict(solution.assignment)

        def resolver_for(holes):
            return FixedResolver({
                hole: hole.domain[hole.index_of(chosen[hole.name])]
                for hole in holes
            })

        expected, first, memoised = _fingerprints(
            lambda: build_skeleton_with_holes("msi-tiny"), resolver_for
        )
        assert solution.fingerprint == expected
        assert first == memoised == expected


def test_msi_small_hashes_each_state_once(monkeypatch):
    """Across a whole msi-small synthesis, ``fingerprint_state`` runs at
    most once per distinct slab id the solutions' visited sets hold."""
    hashed = []
    requested = []
    original_hash = packed_module.fingerprint_state
    original_lookup = PackedRuntime.fingerprint

    def counting_hash(state):
        hashed.append(state)
        return original_hash(state)

    def recording_lookup(self, rid, canonicalize):
        requested.append((id(self), rid))
        return original_lookup(self, rid, canonicalize)

    monkeypatch.setattr(packed_module, "fingerprint_state", counting_hash)
    monkeypatch.setattr(PackedRuntime, "fingerprint", recording_lookup)
    system, _holes = build_skeleton_with_holes("msi-small")
    report = SynthesisEngine(
        system, SynthesisConfig(packed=True, compute_fingerprints=True)
    ).run()
    assert len(report.solutions) == 126
    distinct = set(requested)
    assert len(hashed) == len(distinct)
    assert len(distinct) < len(requested)


def test_memo_is_per_canonicaliser():
    """``with_canonicalizer`` copies share the runtime but not its
    fingerprint memo: each copy hashes its own representatives."""
    system = build_protocol("msi", 2)
    identity = system.with_canonicalizer(lambda state: state)
    assert identity.packed_spec is system.packed_spec
    symmetric = make_explorer("bfs", system, packed=True)
    symmetric.run()
    expected_symmetric = symmetric.fingerprint_visited()
    plain = make_explorer("bfs", identity, packed=True)
    plain.run()
    assert plain.packed_runtime is symmetric.packed_runtime
    runtime = plain.packed_runtime
    assert plain.fingerprint_visited() == fingerprint_state_set(
        runtime.state_of(rid) for rid in plain.visited_states
    )
    assert plain.fingerprint_visited() != expected_symmetric
    assert symmetric.fingerprint_visited() == expected_symmetric
