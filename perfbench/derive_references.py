"""Derive the pinned references in ``references.json``.

Usage, from the root of a checkout::

    PYTHONPATH=src python3 perfbench/derive_references.py

The synthesis reference comes from a configuration that shares none of
the accelerations the benchmark measures (no packed kernel, no prefix
reuse, no conflict generalisation, no pattern subsumption, no store);
the benchmark's own configuration must reproduce its solution set, and
its evaluation count is pinned as the sequential count ``synth-dist``
is compared with.  Prints the file's new contents; pass ``--write`` to
replace it.  Takes about half a minute.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_workloads import (  # noqa: E402
    REFERENCES_PATH,
    SKELETON,
    SKELETON_REPLICAS,
    solution_digest,
    synth_config,
)
from repro import api  # noqa: E402
from repro.core.engine import SynthesisConfig  # noqa: E402

PLAIN = dict(packed=False, prefix_reuse=False, generalise_conflicts=False,
             subsumption=False)


def derive() -> dict:
    plain = api.synthesize(
        SKELETON, SynthesisConfig(compute_fingerprints=True, **PLAIN),
        replicas=SKELETON_REPLICAS,
    )
    measured = api.synthesize(SKELETON, synth_config(), replicas=SKELETON_REPLICAS)
    digest = solution_digest(plain.solutions)
    if solution_digest(measured.solutions) != digest:
        raise SystemExit("the benchmark configuration disagrees with the plain one")
    return {
        "synthesis": {
            "skeleton": SKELETON,
            "replicas": SKELETON_REPLICAS,
            "solutions": len(plain.solutions),
            "digest": digest,
            "sequential_evaluated": measured.evaluated,
            "derivation": (
                "digest = sha256 of the sorted (assignment, fingerprint) pairs "
                "of a sequential run with compute_fingerprints=True, "
                f"{', '.join(f'{key}={value}' for key, value in PLAIN.items())}"
                f", no store ({plain.evaluated} evaluations); the benchmark "
                "configuration reproduces it with sequential_evaluated "
                "evaluations"
            ),
        },
    }


if __name__ == "__main__":
    text = json.dumps(derive(), indent=2, sort_keys=True) + "\n"
    if "--write" in sys.argv[1:]:
        with open(REFERENCES_PATH, "w", encoding="utf-8") as handle:
            handle.write(text)
    print(text, end="")
