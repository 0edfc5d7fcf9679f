"""Experiment drivers reproducing every table and figure of the paper.

Every driver is registered in the declarative experiment registry of
:mod:`repro.api` (importing this package populates it): one
:class:`~repro.api.ExperimentSpec` per experiment, carrying its parameter
schema, task-batch builder and result schema.  The one documented way to
run them programmatically is ``repro.api.Session().run(name, **params)``;
the ``repro experiment`` CLI subcommands are generated from the same
registry.

The mapping from paper artifact to registry name is:

===========================  =============================================
Paper artifact               Registry / CLI name
===========================  =============================================
Fig. 3 (trace overview)      ``traces``
Fig. 4 (Pareto plots)        ``pareto``
Fig. 5 (QoS variance)        ``variance``
Fig. 6/7 (perturbations)     ``perturbation``
Fig. 8 (runtime vs QPS)      ``scalability``
Table I (MC accuracy)        ``table1``
Fig. 9 / Table II            ``robustness``
Fig. 10 (control accuracy)   ``control``
Fig. 10(d) (planning freq.)  ``planning-frequency``
Table III (regularization)   ``table3``
Table IV (real environment)  ``table4``
===========================  =============================================

``pareto`` also runs the autoscaler comparison on any library scenario of
the workload registry (:mod:`repro.workloads`).  Beyond the paper, the
three ablations (``kappa-ablation`` / ``mc-sample-ablation`` /
``regularization-sensitivity``) probe the planner's and the fit's design
choices.
"""

from . import traces_overview as _traces_overview  # registers "traces"
from . import pareto as _pareto  # registers "pareto"
from . import variance as _variance  # registers "variance"
from . import perturbation as _perturbation  # registers "perturbation"
from . import scalability as _scalability  # registers "scalability", "table1"
from . import robustness as _robustness  # registers "robustness"
from . import control_accuracy as _control  # registers "control", "planning-frequency"
from . import regularization as _regularization  # registers "table3"
from . import realenv as _realenv  # registers "table4"
from . import ablation as _ablation  # registers the three ablations

__all__: list[str] = []
