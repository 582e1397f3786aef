"""Overall objective priors for multiparameter models.

Three routes to a single prior serving every parameter of interest:
closed-form common reference priors (catalogue), the reference-distance
choice within a candidate family (refdist), and hierarchical mixing
over a hyperparameter with a reference hyperprior (hier, shrinkage).
Each submodule is imported on first attribute access, so a process
pays only for the routes it uses.
"""

import importlib as _importlib

from .exceptions import (AccuracyError, BoundaryModeError,
                         DegenerateDataError, DomainError, OverallPriorError,
                         PreconditionError, SingularityError)

__version__ = "0.1.0"

_SUBMODULES = ("catalogue", "hier", "numerics", "refdist", "shrinkage")

__all__ = [
    *_SUBMODULES,
    "OverallPriorError", "DomainError", "AccuracyError",
    "PreconditionError", "BoundaryModeError", "SingularityError",
    "DegenerateDataError",
    "__version__",
]


def __getattr__(name):
    # PEP 562: called only for names not yet in the module's namespace;
    # importing a submodule binds it there, so this runs once per module.
    if name in _SUBMODULES:
        return _importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_SUBMODULES})
