"""Certifiably robust conformal prediction with Lipschitz-bounded classifiers.

The toolkit builds robust prediction sets that keep their coverage under
l2-bounded adversarial perturbations, audits vanilla conformal prediction
under attack via binomial coverage bands valid simultaneously for all
attack budgets, and certifies calibration-set feature poisoning through
exact worst-case quantile-shift bounds.

Importing the package loads none of its submodules: ``from liprcp import
audit`` (or ``import liprcp.audit``) loads the one it names, with the layers
it depends on, so a CLI command loads only the modules on its own path.

BLAS runs on one thread. Importing the package sets ``OMP_NUM_THREADS``,
``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1 where they are unset,
before it first imports numpy; set any of them to run more threads. The
products here are at most a few dozen columns wide, so a second thread
saves little, while it costs memory at start-up and changes how a product
is split and so its last bits. Outputs are byte-reproducible across
machines only at one thread. The pin has no effect when numpy was imported
before ``liprcp``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .rng import substream  # noqa: E402 - numpy loads after the pin

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
