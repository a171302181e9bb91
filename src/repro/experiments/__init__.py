"""Experiment harness: the paper's Section V, figure by figure.

* :mod:`repro.experiments.harness` -- generic sweep runner: one x-axis,
  N replications per point, the paper's scheduler set, paired graphs;
* :mod:`repro.experiments.figures` -- one :class:`SweepDefinition` per
  figure (Figs. 2-4, 6-8, 10-11, 13-14) with the paper's parameters;
* :mod:`repro.experiments.table1` -- the Table I trace and the in-text
  makespan comparison on the Fig. 1 graph;
* :mod:`repro.experiments.report` -- text rendering of sweep results.
"""

from repro.experiments.graphspec import GraphSpec, register_graph_factory
from repro.experiments.harness import (
    SweepDefinition,
    SweepResult,
    run_sweep,
    run_replication,
)
from repro.experiments.parallel import run_sweep_parallel, sweep_pool
from repro.experiments.campaign import (
    Campaign,
    CampaignTask,
    campaign_status,
    merge as merge_campaign,
    run_shard,
)
from repro.experiments.figures import FIGURES, get_figure, list_figures
from repro.experiments.table1 import table1_trace, fig1_makespans
from repro.experiments.report import format_sweep, format_makespans, winners
from repro.experiments.chart import ascii_chart
from repro.experiments.export import sweep_to_csv, grid_to_csv
from repro.experiments.grid import (
    GridResult,
    run_grid,
    format_marginals,
    grid_sweep_definition,
    marginals_from_sweep,
    sample_configs,
)
from repro.experiments.claims import PAPER_CLAIMS, evaluate_claim, evaluate_all
from repro.experiments.significance import ComparisonResult, compare_schedulers

__all__ = [
    "GraphSpec",
    "register_graph_factory",
    "SweepDefinition",
    "SweepResult",
    "run_sweep",
    "run_replication",
    "run_sweep_parallel",
    "sweep_pool",
    "Campaign",
    "CampaignTask",
    "campaign_status",
    "merge_campaign",
    "run_shard",
    "FIGURES",
    "get_figure",
    "list_figures",
    "table1_trace",
    "fig1_makespans",
    "format_sweep",
    "format_makespans",
    "winners",
    "ascii_chart",
    "sweep_to_csv",
    "grid_to_csv",
    "GridResult",
    "run_grid",
    "format_marginals",
    "grid_sweep_definition",
    "marginals_from_sweep",
    "sample_configs",
    "PAPER_CLAIMS",
    "evaluate_claim",
    "evaluate_all",
    "ComparisonResult",
    "compare_schedulers",
]
