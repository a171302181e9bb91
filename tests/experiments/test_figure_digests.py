"""Golden digests of every figure's table.

Each case runs one figure of the paper at a small replication count
and pins the sha256 of its :func:`~repro.experiments.report.format_sweep`
table, printed with 17 significant decimals so a one-ulp shift in any
mean changes the digest.  The replication count (16) reaches
:func:`~repro.core.batch.min_lanes` for the whole paper set, so the
``"auto"`` cases run the batched kernel and the ``"off"`` cases the
scalar engines; both must give the same table.  The cases cover every
graph factory the figures use (random, FFT, Montage, molecular) and
with them the instance build: the generator's draws, normalization and
compilation.

To regenerate after an *intended* change to a figure's numbers, run
this file as a script and paste its output over ``GOLDEN``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments.figures import get_figure, list_figures
from repro.experiments.harness import run_sweep
from repro.experiments.report import format_sweep
from repro.runtime.context import activate, current_context

REPS = 16
SEED = 0
PRECISION = 17
BATCH_MODES = ("auto", "off")

#: figure -> sha256 of its table (the same under both batch modes)
GOLDEN = {
    "fig2": "a888b506112a4f88dbc83f7f3d9cc59667eccf0f62236b81ea0e34a0ac3ef278",
    "fig3": "67a5d9443ab3e537b4a40249a61d12c2d3bc833feba78f255505b8333ee35a26",
    "fig4": "0d46648c2c608a3fc3b44ae84b4d7523bd6dc4028bee97720bc01cffbb547b3c",
    "fig6": "a42870c56414c0b8c7168214b54a55c021d82ca74d6f42d4f2f34a0a91bc0224",
    "fig7": "35ff1926119560a51aa45e08cc8ba4528c3094851fe50a0bdfe47690aa22941c",
    "fig8": "115765e15715b1e8cf5879f9953efa88b8c05b833fcd948d53bcf56f6e7280d1",
    "fig10": "b944e3a5fab67b9cca1a2d683f2053fba1828868207bb2ee4ea5494245057270",
    "fig11": "4fcce98dbbef2b3eac2d948a7c68716aab1764ae5078ab5917ef1a7e887bd103",
    "fig13": "83c95a7bc6f9fca6ed8637f7d576d98879788ab8570b7976a17302d1cd3d3063",
    "fig14": "3750fe64197d1d73f2b5de7ebe3a1f22d6df67138f51824e02ba7c3ae0b7fb1f",
}


def figure_digest(key: str, batch: str) -> str:
    with activate(current_context().with_(batch=batch)):
        result = run_sweep(get_figure(key), reps=REPS, seed=SEED)
    text = format_sweep(result, precision=PRECISION)
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_figure_is_pinned():
    assert sorted(GOLDEN) == sorted(list_figures())


@pytest.mark.parametrize("batch", BATCH_MODES)
@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_figure_table_digest(key, batch):
    assert figure_digest(key, batch) == GOLDEN[key]


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    for figure in list_figures():
        digests = {figure_digest(figure, mode) for mode in BATCH_MODES}
        assert len(digests) == 1, f"{figure}: batch modes disagree"
        print(f'    "{figure}": "{digests.pop()}",')
