"""The Independent Task Queue (ITQ).

The paper's dynamic ready list: a task enters the ITQ the moment its last
parent is mapped, and leaves when it is mapped itself.  Priorities are
*not* stored here -- HDLTS recomputes them from the platform state on
every step -- so the ITQ is a plain dependency-counting frontier with
deterministic iteration order (ascending task id, which is also the
tie-break order for equal penalty values), kept as one sorted list: a
release is one ``insort`` and a completion one removal, so reading the
frontier sorts nothing.  It reads the compiled form
of the graph (in-degrees and per-task child lists), so a compiled
instance needs no :class:`~repro.model.task_graph.TaskGraph`.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Iterable, Iterator, List, Set, Union

import numpy as np

from repro.model.compiled import CompiledGraph, compile_graph
from repro.model.task_graph import TaskGraph

__all__ = ["IndependentTaskQueue"]


class IndependentTaskQueue:
    """Dependency-counting ready frontier over a task graph."""

    def __init__(self, graph: Union[TaskGraph, CompiledGraph]) -> None:
        compiled = compile_graph(graph)
        self._n_tasks = compiled.n_tasks
        self._succ = compiled.succ_lists
        self._remaining: List[int] = np.diff(compiled.pred_indptr).tolist()
        self._ready: List[int] = [
            t for t, left in enumerate(self._remaining) if left == 0
        ]
        self._done: Set[int] = set()

    @classmethod
    def resumed(
        cls, graph: Union[TaskGraph, CompiledGraph], done: Iterable[int]
    ) -> "IndependentTaskQueue":
        """The frontier once ``done`` are mapped, in whatever order they
        ran.  A task may be done while a parent is not (it read a
        duplicate of the parent); completing that parent later must not
        release it again."""
        itq = cls(graph)
        remaining = itq._remaining
        itq._done = set(done)
        for task in itq._done:
            for succ in itq._succ[task]:
                remaining[succ] -= 1
        for task in itq._done:
            # one above its unmapped parents: never reaches zero
            remaining[task] += 1
        itq._ready = [t for t, left in enumerate(remaining) if left == 0]
        return itq

    def __len__(self) -> int:
        return len(self._ready)

    def __bool__(self) -> bool:
        return bool(self._ready)

    def _index(self, task: int) -> int:
        """Position of ``task`` in the sorted frontier, or -1."""
        i = bisect_left(self._ready, task)
        return i if i < len(self._ready) and self._ready[i] == task else -1

    def __contains__(self, task: int) -> bool:
        return self._index(task) >= 0

    def __iter__(self) -> Iterator[int]:
        """Ready tasks in ascending id order (deterministic)."""
        return iter(self.ready_tasks())

    def ready_tasks(self) -> List[int]:
        """The current independent tasks, ascending id (a copy)."""
        return self._ready[:]

    def complete(self, task: int) -> List[int]:
        """Mark ``task`` mapped; returns the tasks that became independent."""
        i = self._index(task)
        if i < 0:
            raise ValueError(
                f"task {task} is not independent (ready set: {self._ready})"
            )
        del self._ready[i]
        self._done.add(task)
        released: List[int] = []
        for succ in self._succ[task]:
            self._remaining[succ] -= 1
            if self._remaining[succ] == 0:
                insort(self._ready, succ)
                released.append(succ)
            elif self._remaining[succ] < 0:  # pragma: no cover - invariant
                raise RuntimeError(f"task {succ} released twice")
        return released

    @property
    def n_completed(self) -> int:
        return len(self._done)

    def all_mapped(self) -> bool:
        """True when every task has been completed."""
        return len(self._done) == self._n_tasks
