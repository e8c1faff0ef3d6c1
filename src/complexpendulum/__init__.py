"""Complex classical trajectories of pendulum-family Hamiltonians.

Numerical engine and CLI for integrating Hamilton's equations with
complex position and momentum, locating complex turning points,
classifying orbit topology (closed / open / escaped), and evaluating
escape-time and period integrals by contour quadrature.

The public names are each module's ``__all__``, re-exported here.
"""
from . import analysis, integrator, models, quadrature, turning
from .analysis import *  # noqa: F403
from .integrator import *  # noqa: F403
from .models import *  # noqa: F403
from .quadrature import *  # noqa: F403
from .turning import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__", *models.__all__, *integrator.__all__, *turning.__all__, *quadrature.__all__, *analysis.__all__]
