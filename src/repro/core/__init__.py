"""HDLTS -- the paper's primary contribution.

Heterogeneous Dynamic List Task Scheduling (Section IV): a dynamic ready
list (the Independent Task Queue) re-prioritized every step by the penalty
value (sample standard deviation of the task's EFT vector across CPUs),
min-EFT CPU selection, and effective entry-task duplication (Algorithm 1).
"""

from repro.core.base import Scheduler, SchedulingResult
from repro.core.hdlts import HDLTS, PriorityRule
from repro.core.itq import IndependentTaskQueue
from repro.core.duplication import entry_duplication_plan, DuplicationDecision
from repro.core.trace import TraceStep, format_trace

__all__ = [
    "Scheduler",
    "SchedulingResult",
    "HDLTS",
    "PriorityRule",
    "IndependentTaskQueue",
    "entry_duplication_plan",
    "DuplicationDecision",
    "TraceStep",
    "format_trace",
]
