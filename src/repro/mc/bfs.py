"""Breadth-first explicit-state exploration.

A thin FIFO-strategy shell over the unified
:class:`~repro.mc.kernel.ExplorationKernel`, which implements the paper's
embedded model checker and pins down the verdict semantics shared by every
search strategy (see the kernel's module docstring).  BFS is the synthesis
default because FIFO discovery order yields *minimal* error traces
(footnote 1 of the paper: minimality matters because a short trace touches
few holes, which is what makes candidate pruning effective).

``ExplorationLimits`` is re-exported here for backwards compatibility; it
lives in :mod:`repro.mc.kernel`.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.mc.kernel import ExplorationKernel, ExplorationLimits, FifoFrontier
from repro.mc.system import TransitionSystem

__all__ = ["BfsExplorer", "ExplorationLimits"]


class BfsExplorer(ExplorationKernel):
    """One-shot breadth-first explorer (FIFO frontier strategy)."""

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
            strategy=FifoFrontier(),
            limits=limits,
            record_traces=record_traces,
        )
