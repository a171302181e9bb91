"""Golden digests of stream rate sweeps.

Each case runs one injection-rate sweep and pins the sha256 of its
:func:`~repro.experiments.report.format_sweep` table, printed with 17
significant decimals so a one-ulp shift in any mean changes the digest.
The three workloads differ only in duration noise -- gaussian, uniform
and exact -- so the digests cover the arrival draws, every job's
instance draw and normalization, the realized duration matrix, the
admission queues and both event loops.  Each point holds ``REPS *
N_JOBS`` = 48 jobs, enough for its largest ``(n_tasks, n_procs, entry)``
groups to reach :func:`~repro.core.batch.min_lanes`, so the ``"auto"``
cases run the batched admission kernel and the ``"off"`` cases the
scalar schedulers; both must give the same table.

To regenerate after an *intended* change to a stream's numbers, run
this file as a script and paste its output over ``GOLDEN``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments.graphspec import GraphSpec
from repro.experiments.harness import run_sweep
from repro.experiments.report import format_sweep
from repro.runtime.context import activate, current_context
from repro.stream import ArrivalSpec, StreamSpec
from repro.stream.spec import stream_sweep_definition

REPS = 8
N_JOBS = 6
SEED = 0
PRECISION = 17
BATCH_MODES = ("auto", "off")
RATES = (0.01, 0.05)

NOISES = {
    "gaussian": {"kind": "gaussian", "sigma": 0.2},
    "uniform": {"kind": "uniform", "spread": 0.3},
    "exact": None,
}

#: noise -> sha256 of the sweep's table (the same under both batch modes)
GOLDEN = {
    "gaussian": "2b049d397f4058bb368447c222e49ba9b406b26a9afbf7769d91ad96f075f533",
    "uniform": "6c3ce975b1d1e37a4abe7b621c161aad96f07f80f1bfd5dd0220420a7420721f",
    "exact": "a9b0f76d1c94ca095e90fe4e49ebadcef090dc48a700fd336b66ffe0bc99f356",
}


def sweep_definition(noise: str):
    spec = StreamSpec(
        job=GraphSpec("random", {"axis": "v", "n_procs": 3, "ccr": 1.0}),
        arrival=ArrivalSpec("poisson", rate=0.02),
        n_jobs=N_JOBS,
        axis="rate",
        job_x=8,
        noise=NOISES[noise],
    )
    return stream_sweep_definition(f"stream-{noise}", spec, RATES)


def sweep_digest(noise: str, batch: str) -> str:
    with activate(current_context().with_(batch=batch)):
        result = run_sweep(sweep_definition(noise), reps=REPS, seed=SEED)
    text = format_sweep(result, precision=PRECISION)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("batch", BATCH_MODES)
@pytest.mark.parametrize("noise", sorted(GOLDEN))
def test_stream_sweep_digest(noise, batch):
    assert sweep_digest(noise, batch) == GOLDEN[noise]


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    for noise in NOISES:
        digests = {sweep_digest(noise, mode) for mode in BATCH_MODES}
        assert len(digests) == 1, f"{noise}: batch modes disagree"
        print(f'    "{noise}": "{digests.pop()}",')
