"""OOM / OOT simulation.

The paper reports cells as OOM when an algorithm exceeds 504 GB and
OOT past 24 h (C++, 64 threads). At our scale the analogous failure
modes are (i) materializing too many k-cliques (GC, OPT) and (ii)
unbounded exact search (OPT's MIS). ``Budget`` lets harnesses cap
both and report the same OOM/OOT cells the paper does instead of
actually exhausting the sandbox.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field


class SimulatedOOM(RuntimeError):
    """Raised when a run would materialize more objects than its budget."""


class SimulatedOOT(RuntimeError):
    """Raised when a run exceeds its wall-clock budget."""


@dataclass
class Budget:
    """Cap on materialized cliques and wall-clock time.

    ``max_cliques`` guards memory-style blow-ups (count of k-cliques an
    algorithm must hold at once); ``max_seconds`` guards time-style
    blow-ups. ``deadline``, set at construction, is the
    ``time.monotonic()`` reading at which ``max_seconds`` run out.
    """

    max_cliques: int | None = None
    max_seconds: float | None = None
    deadline: float | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.max_seconds is not None:
            self.deadline = time.monotonic() + self.max_seconds

    def check_count(self, count: int) -> None:
        if self.max_cliques is not None and count > self.max_cliques:
            raise SimulatedOOM(f"{count} cliques exceeds budget {self.max_cliques}")

    def check_time(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise SimulatedOOT(f"exceeded {self.max_seconds}s budget")

