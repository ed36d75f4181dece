"""Kinematics of the planar 3-RPR parallel manipulator.

The mechanism has three legs, each an actuated revolute joint at a base
anchor followed by a passive prismatic extension to a platform anchor;
base and platform are congruent equilateral triangles.  The package
provides inverse and direct kinematics, the velocity-level Jacobian pair
with singularity classification, coupler-curve tracing for the
two-leg subchain, and the straight-line (Reuleaux) degeneracy analysis,
plus an independent brute-force oracle used for cross-validation.

Each layer declares its public names once, in its own ``__all__``; the
package re-exports all of them.
"""

from . import coupler, errors, geometry, jacobians, oracle, solvers
from .errors import *
from .geometry import *
from .solvers import *
from .jacobians import *
from .coupler import *
from .oracle import *

__version__ = "0.1.0"

_LAYERS = (errors, geometry, solvers, jacobians, coupler, oracle)
__all__ = ["__version__", *(name for layer in _LAYERS for name in layer.__all__)]
