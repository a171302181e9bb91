"""Fail-stop CPU failure model.

A CPU dies at ``at_time`` and never recovers.  The online scheduler does
*not* know the failure in advance: a task caught running on the CPU when
it dies is lost and must be re-dispatched, and the failure becomes known
to the scheduler only at ``at_time`` (detection is immediate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

__all__ = ["FailStop"]


@dataclass(frozen=True)
class FailStop:
    """One fail-stop event."""

    proc: int
    at_time: float

    def __post_init__(self) -> None:
        if self.proc < 0:
            raise ValueError("proc must be >= 0")
        if not self.at_time >= 0:  # NaN compares false and would never fire
            raise ValueError(f"at_time must be >= 0, got {self.at_time!r}")


def failure_times(
    failures: Optional[Iterable[FailStop]], n_procs: int
) -> Dict[int, float]:
    """Earliest failure time per CPU (validated against the platform)."""
    table: Dict[int, float] = {}
    for failure in failures or ():
        if failure.proc >= n_procs:
            raise ValueError(
                f"failure on CPU {failure.proc} but platform has {n_procs}"
            )
        current = table.get(failure.proc)
        if current is None or failure.at_time < current:
            table[failure.proc] = failure.at_time
    return table
