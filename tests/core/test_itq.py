"""Unit tests for the Independent Task Queue."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.itq import IndependentTaskQueue
from repro.model.task_graph import TaskGraph


def test_initial_ready_set_is_entry_tasks(fig1):
    itq = IndependentTaskQueue(fig1)
    assert itq.ready_tasks() == [0]
    assert len(itq) == 1
    assert 0 in itq


def test_completion_releases_children(fig1):
    itq = IndependentTaskQueue(fig1)
    released = itq.complete(0)
    assert sorted(released) == [1, 2, 3, 4, 5]
    assert itq.ready_tasks() == [1, 2, 3, 4, 5]


def test_child_released_only_after_all_parents(fig1):
    itq = IndependentTaskQueue(fig1)
    itq.complete(0)
    # T8 (id 7) needs T2, T4, T6 (ids 1, 3, 5)
    assert itq.complete(1) == []
    assert itq.complete(3) == []
    assert itq.complete(5) == [7]


def test_completing_non_ready_task_rejected(fig1):
    itq = IndependentTaskQueue(fig1)
    with pytest.raises(ValueError, match="not independent"):
        itq.complete(9)


def test_completing_twice_rejected(fig1):
    itq = IndependentTaskQueue(fig1)
    itq.complete(0)
    with pytest.raises(ValueError, match="not independent"):
        itq.complete(0)


def test_full_drain_visits_every_task(fig1):
    itq = IndependentTaskQueue(fig1)
    visited = []
    while itq:
        task = itq.ready_tasks()[0]
        visited.append(task)
        itq.complete(task)
    assert sorted(visited) == list(fig1.tasks())
    assert itq.all_mapped()
    assert itq.n_completed == fig1.n_tasks


def test_drain_order_is_topological(fig1):
    itq = IndependentTaskQueue(fig1)
    position = {}
    step = 0
    while itq:
        task = itq.ready_tasks()[-1]  # arbitrary pick
        position[task] = step
        itq.complete(task)
        step += 1
    for edge in fig1.edges():
        assert position[edge.src] < position[edge.dst]


def test_iteration_is_sorted(fig1):
    itq = IndependentTaskQueue(fig1)
    itq.complete(0)
    assert list(itq) == sorted(itq.ready_tasks())


def test_parallel_tasks_all_ready_immediately():
    graph = TaskGraph(1)
    for _ in range(4):
        graph.add_task([1])
    itq = IndependentTaskQueue(graph)
    assert itq.ready_tasks() == [0, 1, 2, 3]


# ----------------------------------------------------------------------
# the sorted frontier against a set model
# ----------------------------------------------------------------------
@st.composite
def _dag_and_done(draw):
    """A DAG (edges run from lower to higher ids) and a done subset."""
    n = draw(st.integers(1, 12))
    pairs = [(s, d) for s in range(n) for d in range(s + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    graph = TaskGraph(1)
    for _ in range(n):
        graph.add_task([1.0])
    for s, d in edges:
        graph.add_edge(s, d, 0.0)
    done = draw(st.sets(st.integers(0, n - 1)))
    return graph, done


def _model_ready(graph, completed):
    """``sorted(set)`` oracle: uncompleted tasks whose parents all are."""
    return sorted(
        t for t in graph.tasks()
        if t not in completed
        and all(p in completed for p in graph.predecessors(t))
    )


@settings(max_examples=150, deadline=None)
@given(case=_dag_and_done(), resume=st.booleans(), data=st.data())
def test_frontier_matches_the_set_model(case, resume, data):
    """Under any completion order, from scratch or :meth:`resumed`, the
    frontier reads like ``sorted(set)`` of the ready tasks, and each
    read is a copy."""
    graph, done = case
    completed = set(done) if resume else set()
    itq = (
        IndependentTaskQueue.resumed(graph, done)
        if resume
        else IndependentTaskQueue(graph)
    )
    while True:
        want = _model_ready(graph, completed)
        ready = itq.ready_tasks()
        assert ready == want
        assert list(itq) == want and len(itq) == len(want)
        assert all(t in itq for t in want)
        assert not any(t in itq for t in completed)
        ready.clear()  # a copy: the queue is unchanged
        assert itq.ready_tasks() == want
        if not want:
            break
        task = want[data.draw(st.integers(0, len(want) - 1))]
        released = itq.complete(task)
        completed.add(task)
        assert sorted(released) == sorted(
            set(_model_ready(graph, completed)) - set(want)
        )
        with pytest.raises(ValueError, match="not independent"):
            itq.complete(task)
