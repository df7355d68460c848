"""Certifiably robust conformal prediction with Lipschitz-bounded classifiers.

The toolkit builds robust prediction sets that keep their coverage under
l2-bounded adversarial perturbations, audits vanilla conformal prediction
under attack via binomial coverage bands valid simultaneously for all
attack budgets, and certifies calibration-set feature poisoning through
exact worst-case quantile-shift bounds.

Importing the package loads none of its submodules: ``from liprcp import
audit`` (or ``import liprcp.audit``) loads the one it names, with the layers
it depends on, so a CLI command loads only the modules on its own path.
"""

from .rng import substream

__all__ = [
    "attack",
    "audit",
    "conformal",
    "datasets",
    "lipnet",
    "poison",
    "robust",
    "scores",
    "substream",
]

__version__ = "0.1.0"
