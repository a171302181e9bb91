"""Dynamic / uncertain-environment extension (the paper's future work).

The paper argues HDLTS suits dynamic environments because every decision
is made from live platform state; its conclusion defers that evaluation
to future work.  This package builds it:

* :mod:`repro.dynamic.noise` -- execution-time perturbation models
  (multiplicative gaussian / uniform noise over the estimated ``W``);
* :mod:`repro.dynamic.failures` -- fail-stop CPU failures;
* :mod:`repro.dynamic.online` -- :class:`OnlineHDLTS`, which runs the
  ITQ/penalty-value loop *at runtime*: decisions use estimated costs, but
  the platform state they see is the realized one.  It is the job-stream
  arena (:mod:`repro.stream.arena`) holding a lone job, and with exact
  durations it dispatches exactly offline HDLTS's schedule.  Compared
  against executing a statically computed schedule under the same
  perturbations (via :class:`~repro.schedule.simulator.ScheduleSimulator`);
* :mod:`repro.dynamic.repair` -- checkpoint-and-replan recovery: the
  static schedule runs until a CPU fail-stops, then the same arena's
  online loop re-plans the rest on the survivors.
"""

from repro.dynamic.noise import exact_durations, gaussian_noise, uniform_noise
from repro.dynamic.failures import FailStop
from repro.dynamic.online import OnlineHDLTS, OnlineResult, replay_static
from repro.dynamic.robustness import RobustnessReport, robustness_report
from repro.dynamic.repair import repair_after_failure

__all__ = [
    "exact_durations",
    "gaussian_noise",
    "uniform_noise",
    "FailStop",
    "OnlineHDLTS",
    "OnlineResult",
    "replay_static",
    "RobustnessReport",
    "robustness_report",
    "repair_after_failure",
]
