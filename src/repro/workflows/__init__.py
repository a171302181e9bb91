"""Real-world application workflows used in the paper's evaluation.

* :func:`paper_example_graph` -- the 10-task / 3-CPU example of Fig. 1
  (the classic Topcuoglu et al. graph), used by Table I;
* :func:`fft_workflow` -- recursive + butterfly FFT task graphs (Fig. 5);
* :func:`montage_workflow` -- Pegasus Montage mosaicking DAGs (Fig. 9),
  sizable to exactly 20/50/100 nodes;
* :func:`molecular_dynamics_workflow` -- the fixed 41-task modified
  molecular-dynamics code (Fig. 12);
* :func:`gaussian_elimination_workflow` -- a structured extension
  workload common in this literature.

Each ``*_topology`` builder returns a :class:`Topology` (the structure)
and each ``*_workflow`` helper a :class:`~repro.model.task_graph.TaskGraph`
with per-CPU costs drawn by the same cost model as the synthetic
generator (Eqs. 13-14), so CCR / beta / CPU sweeps apply uniformly to
every workload.
"""

from repro.workflows.paper_example import paper_example_graph
from repro.workflows.fft import fft_workflow, fft_task_count
from repro.workflows.montage import montage_workflow, montage_shape
from repro.workflows.molecular import molecular_dynamics_workflow
from repro.workflows.gaussian import gaussian_elimination_workflow
from repro.workflows.epigenomics import epigenomics_workflow
from repro.workflows.cybershake import cybershake_workflow
from repro.workflows.topology import Topology, realize_topology

__all__ = [
    "paper_example_graph",
    "fft_workflow",
    "fft_task_count",
    "montage_workflow",
    "montage_shape",
    "molecular_dynamics_workflow",
    "gaussian_elimination_workflow",
    "epigenomics_workflow",
    "cybershake_workflow",
    "Topology",
    "realize_topology",
]
