"""One :class:`SweepDefinition` per figure of the paper's evaluation.

Where the paper fixes a parameter, we fix it to the published value
(Montage: 5 CPUs for the CCR sweep, CCR=3 for every efficiency-vs-CPU
sweep, FFT efficiency at m=16, Montage sizes 50 and 100).  Where the
paper is silent we use the Table II midpoint defaults -- v=100, alpha=1,
density=3, CCR=1, 4 CPUs, W_dag=50, beta=1 -- and record that choice in
EXPERIMENTS.md.

Every figure's graph factory is a declarative
:class:`~repro.experiments.graphspec.GraphSpec` (registered factory
name + parameters): definitions pickle, ship to ``spawn``/``forkserver``
workers, and serialize into run manifests.

``fig3`` defaults to task sizes up to 1000; pass ``full=True`` to include
the paper's 5000/10000-task points (minutes of pure-Python runtime).
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.graphspec import GraphSpec
from repro.experiments.harness import SweepDefinition

__all__ = ["FIGURES", "get_figure", "list_figures"]

# Table II midpoint defaults ride on the factories' GeneratorConfig
# defaults.  ``single_entry``: the paper's worked example and its
# entry-duplication pillar presume a real entry task; random graphs
# folded under a zero-cost pseudo entry would make Algorithm 1 a no-op,
# so the random-workflow figures draw single-entry graphs
# (EXPERIMENTS.md discusses the multi-entry variant).
_RANDOM_BASE = {"single_entry": True}
_EFFICIENCY_CCR = 3.0  # the paper pins CCR=3 for efficiency-vs-CPUs sweeps


# ----------------------------------------------------------------------
# random-workflow figures (Section V-B)
# ----------------------------------------------------------------------
def _fig2() -> SweepDefinition:
    return SweepDefinition(
        key="fig2",
        title="Average SLR of random application workflows vs CCR",
        x_label="CCR",
        x_values=(1.0, 2.0, 3.0, 4.0, 5.0),
        metric="slr",
        graph=GraphSpec("random", {"axis": "ccr", **_RANDOM_BASE}),
        description="v=100, alpha=1, density=3, 4 CPUs, W_dag=50, beta=1, single entry",
    )


def _fig3(full: bool = False) -> SweepDefinition:
    sizes = (100, 200, 300, 400, 500, 1000)
    if full:
        sizes = sizes + (5000, 10000)

    return SweepDefinition(
        key="fig3",
        title="Average SLR of random application workflows vs task size",
        x_label="tasks",
        x_values=sizes,
        metric="slr",
        graph=GraphSpec("random", {"axis": "v", **_RANDOM_BASE}),
        description="alpha=1, density=3, CCR=1, 4 CPUs, single entry (full=True adds 5000/10000)",
    )


def _fig4() -> SweepDefinition:
    return SweepDefinition(
        key="fig4",
        title="Efficiency of random application workflows vs number of CPUs",
        x_label="CPUs",
        x_values=(2, 4, 6, 8, 10),
        metric="efficiency",
        graph=GraphSpec("random", {"axis": "n_procs", **_RANDOM_BASE}),
        description="v=100, alpha=1, density=3, CCR=1, W_dag=50, beta=1, single entry",
    )


# ----------------------------------------------------------------------
# FFT figures (Section V-C.1)
# ----------------------------------------------------------------------
def _fig6() -> SweepDefinition:
    return SweepDefinition(
        key="fig6",
        title="Average SLR of FFT workflows vs input points",
        x_label="points",
        x_values=(4, 8, 16, 32),
        metric="slr",
        graph=GraphSpec("fft", {"axis": "m", "n_procs": 4, "ccr": 1.0}),
        description="FFT m=4..32 (15..223 tasks), CCR=1, 4 CPUs",
    )


def _fig7() -> SweepDefinition:
    return SweepDefinition(
        key="fig7",
        title="Average SLR of FFT workflows vs CCR",
        x_label="CCR",
        x_values=(1.0, 2.0, 3.0, 4.0, 5.0),
        metric="slr",
        graph=GraphSpec("fft", {"axis": "ccr", "m": 16, "n_procs": 4}),
        description="FFT m=16 (95 tasks), 4 CPUs",
    )


def _fig8() -> SweepDefinition:
    return SweepDefinition(
        key="fig8",
        title="Efficiency of FFT workflows vs number of CPUs",
        x_label="CPUs",
        x_values=(2, 4, 6, 8, 10),
        metric="efficiency",
        graph=GraphSpec(
            "fft", {"axis": "n_procs", "m": 16, "ccr": _EFFICIENCY_CCR}
        ),
        description="FFT m=16 (the paper's choice), CCR=3",
    )


# ----------------------------------------------------------------------
# Montage figures (Section V-C.2): the paper evaluates both the 50- and
# 100-node fixed structures, alternating per instance
# ----------------------------------------------------------------------
def _fig10() -> SweepDefinition:
    return SweepDefinition(
        key="fig10",
        title="Average SLR of Montage workflows vs CCR",
        x_label="CCR",
        x_values=(1.0, 2.0, 3.0, 4.0, 5.0),
        metric="slr",
        graph=GraphSpec(
            "montage", {"axis": "ccr", "sizes": [50, 100], "n_procs": 5}
        ),
        description="Montage 50/100 nodes, 5 CPUs (paper's setting)",
    )


def _fig11() -> SweepDefinition:
    return SweepDefinition(
        key="fig11",
        title="Efficiency of Montage workflows vs number of CPUs",
        x_label="CPUs",
        x_values=(2, 4, 6, 8, 10),
        metric="efficiency",
        graph=GraphSpec(
            "montage",
            {"axis": "n_procs", "sizes": [50, 100], "ccr": _EFFICIENCY_CCR},
        ),
        description="Montage 50/100 nodes, CCR=3 (paper's setting)",
    )


# ----------------------------------------------------------------------
# Molecular-dynamics figures (Section V-C.3)
# ----------------------------------------------------------------------
def _fig13() -> SweepDefinition:
    return SweepDefinition(
        key="fig13",
        title="Average SLR of Molecular Dynamics workflow vs CCR",
        x_label="CCR",
        x_values=(1.0, 2.0, 3.0, 4.0, 5.0),
        metric="slr",
        graph=GraphSpec("molecular", {"axis": "ccr", "n_procs": 4}),
        description="fixed 41-task MD graph, 4 CPUs",
    )


def _fig14() -> SweepDefinition:
    return SweepDefinition(
        key="fig14",
        title="Efficiency of Molecular Dynamics workflow vs number of CPUs",
        x_label="CPUs",
        x_values=(2, 4, 6, 8, 10),
        metric="efficiency",
        graph=GraphSpec(
            "molecular", {"axis": "n_procs", "ccr": _EFFICIENCY_CCR}
        ),
        description="fixed 41-task MD graph, CCR=3 (paper's setting)",
    )


FIGURES: Dict[str, SweepDefinition] = {
    d.key: d
    for d in (
        _fig2(),
        _fig3(),
        _fig4(),
        _fig6(),
        _fig7(),
        _fig8(),
        _fig10(),
        _fig11(),
        _fig13(),
        _fig14(),
    )
}


def get_figure(key: str, **kwargs) -> SweepDefinition:
    """Fetch a figure definition; ``fig3`` accepts ``full=True``."""
    if key == "fig3" and kwargs.pop("full", False):
        return _fig3(full=True)
    if kwargs:
        raise TypeError(f"unexpected options {sorted(kwargs)} for {key}")
    try:
        return FIGURES[key]
    except KeyError:
        raise KeyError(
            f"unknown figure {key!r}; known: {', '.join(FIGURES)}"
        ) from None


def list_figures() -> List[str]:
    """Keys of every defined figure (fig2 .. fig14)."""
    return list(FIGURES)
