"""The one fold from replications to statistics, against its oracle.

:class:`~repro.experiments.harness.ExactWelford` must reproduce a
per-lane :meth:`RunningStats.add <repro.metrics.stats.RunningStats.add>`
sequence bit for bit -- n, mean, m2, min and max -- whether it folds
replication stripes across every x point with gaps (the campaign merge)
or one chunk of one point at a time (the pool, resume and service
routes).  Values cover ties, signed zeros, mixed signs and magnitudes
from 1e-300 to 1e300, where m2 overflows to inf and on to nan exactly
as the scalar recurrence does.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import harness
from repro.experiments.harness import ExactWelford, run_sweep
from repro.metrics.stats import RunningStats
from tests.experiments.test_harness import tiny_sweep

_MAGNITUDE = st.floats(
    min_value=1e-300, max_value=1e300, allow_nan=False, allow_infinity=False
)
_VALUE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 1e-300, -1e300]),
    st.builds(lambda m, neg: -m if neg else m, _MAGNITUDE, st.booleans()),
)


@st.composite
def _campaigns(draw):
    """Values ``(reps, n_points, k)``, a chunk size and per-task gaps."""
    n_points = draw(st.integers(1, 5))
    k = draw(st.integers(1, 4))
    reps = draw(st.integers(1, 12))
    chunk = draw(st.integers(1, 5))
    flat = draw(
        st.lists(_VALUE, min_size=reps * n_points * k,
                 max_size=reps * n_points * k)
    )
    values = np.array(flat, dtype=np.float64).reshape(reps, n_points, k)
    stripes = [(lo, min(lo + chunk, reps)) for lo in range(0, reps, chunk)]
    present = np.array(
        draw(st.lists(st.booleans(), min_size=len(stripes) * n_points,
                      max_size=len(stripes) * n_points)),
        dtype=bool,
    ).reshape(len(stripes), n_points)
    return values, stripes, present


def _bits(acc):
    return (acc.n,) + tuple(
        struct.pack("<d", v)
        for v in (acc._mean, acc._m2, acc._min, acc._max)
    )


def _assert_matches_oracle(fold, values, stripes, present):
    _, n_points, k = values.shape
    for point in range(n_points):
        for col in range(k):
            oracle = RunningStats()
            for (lo, hi), here in zip(stripes, present[:, point]):
                if here:
                    for rep in range(lo, hi):
                        oracle.add(float(values[rep, point, col]))
            assert _bits(fold.stats_at(point, col)) == _bits(oracle), (
                point, col
            )


@settings(max_examples=200, deadline=None)
@given(_campaigns())
def test_stripe_fold_matches_running_stats(case):
    """The campaign-merge form: masked stripes across every point."""
    values, stripes, present = case
    fold = ExactWelford(values.shape[1], values.shape[2])
    for (lo, hi), mask in zip(stripes, present):
        fold.add_rows(values[lo:hi, mask], mask)
    _assert_matches_oracle(fold, values, stripes, present)


@settings(max_examples=200, deadline=None)
@given(_campaigns())
def test_chunk_fold_matches_running_stats(case):
    """The pool/resume/service form: one chunk of one point at a time,
    in task order (x point by x point)."""
    values, stripes, present = case
    fold = ExactWelford(values.shape[1], values.shape[2])
    for point in range(values.shape[1]):
        for s, (lo, hi) in enumerate(stripes):
            if present[s, point]:
                fold.add_rows(values[lo:hi, point], point)
    _assert_matches_oracle(fold, values, stripes, present)


def test_non_finite_value_raises_on_the_run_sweep_route(monkeypatch):
    monkeypatch.setitem(
        harness._METRICS, "makespan", lambda graph, makespan: float("nan")
    )
    with pytest.raises(ValueError, match="non-finite"):
        run_sweep(tiny_sweep(metric="makespan"), reps=2, seed=0)
