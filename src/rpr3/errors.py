"""Exception types raised by the kinematics routines.

Everything derives from :class:`Rpr3Error` so callers can catch the whole
family at once (the CLI maps them to exit codes this way).
"""

from __future__ import annotations

__all__ = [
    "Rpr3Error", "GeometryError", "LegAtAnchorError", "DegenerateLegPairError",
    "NotReuleauxError", "InconsistentStateError", "SingularNearbyError",
]


class Rpr3Error(Exception):
    """Base class for all errors raised by this package."""


class GeometryError(Rpr3Error, ValueError):
    """Invalid geometry: a scale outside its working range, or a point, leg
    length or det B that is not finite."""


class LegAtAnchorError(Rpr3Error, ValueError):
    """Inverse kinematics is undefined: a platform anchor sits on its base anchor.

    The revolute angle of such a leg is arbitrary.  ``legs`` lists every
    offending leg index (1-based).
    """

    def __init__(self, legs: tuple[int, ...]):
        self.legs = tuple(legs)
        noun = "leg" if len(self.legs) == 1 else "legs"
        super().__init__(
            f"{noun} {', '.join(str(k) for k in self.legs)} at zero extension; "
            "revolute angle undefined"
        )


class DegenerateLegPairError(Rpr3Error, ValueError):
    """The two legs driving a coupler curve are parallel (mod pi), so the
    2x2 position solve is rank deficient."""


class NotReuleauxError(Rpr3Error, ValueError):
    """The joint angles do not produce the rotational self-motion continuum."""


class InconsistentStateError(Rpr3Error, ValueError):
    """Pose and joint angles violate the leg constraints beyond tolerance."""

    def __init__(self, residuals: tuple[float, float, float], tol: float):
        self.residuals = residuals
        self.tol = tol
        worst = max(abs(r) for r in residuals)
        super().__init__(
            f"pose/joint-angle pair violates leg constraints: max residual "
            f"{worst:.3e} exceeds {tol:.3e}"
        )


class SingularNearbyError(Rpr3Error, ArithmeticError):
    """A finite-difference check cannot be trusted: the configuration is too
    close to a singularity for the perturbed solves to converge."""
