"""Depth-first explicit-state exploration.

A thin LIFO-strategy shell over the unified
:class:`~repro.mc.kernel.ExplorationKernel` with verdict semantics
*identical* to :class:`~repro.mc.bfs.BfsExplorer` (SUCCESS / FAILURE /
UNKNOWN, wildcard cuts, coverage, deadlock policy, truncation) — the
kernel is the single implementation of all of them.  The practical
trade-offs are the classic ones:

* DFS often finds *a* violation after visiting fewer states (it commits to
  deep paths instead of sweeping frontiers), which can make individual
  failing candidate checks cheaper;
* its counterexample traces are NOT minimal, which matters for synthesis:
  the paper's candidate-pruning insight leans on minimal traces touching
  few holes (Section II, footnote 1).  The synthesis engines therefore
  default to BFS; DFS is selectable everywhere
  (``SynthesisConfig(explorer="dfs")``, CLI ``--explorer dfs``) and is
  benchmarked against BFS in the ablation suite.

Exploration order: rules are tried in reverse declaration order on a stack,
so the first declared rule is explored deepest-first.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.mc.kernel import ExplorationKernel, ExplorationLimits, LifoFrontier
from repro.mc.system import TransitionSystem

__all__ = ["DfsExplorer"]


class DfsExplorer(ExplorationKernel):
    """One-shot depth-first explorer (LIFO frontier strategy).

    Same interface as :class:`~repro.mc.bfs.BfsExplorer`.
    """

    def __init__(
        self,
        system: TransitionSystem,
        resolver: Any = None,
        limits: Optional[ExplorationLimits] = None,
        record_traces: bool = True,
    ) -> None:
        super().__init__(
            system,
            resolver=resolver,
            strategy=LifoFrontier(),
            limits=limits,
            record_traces=record_traces,
        )
