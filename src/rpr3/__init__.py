"""Kinematics of the planar 3-RPR parallel manipulator.

The mechanism has three legs, each an actuated revolute joint at a base
anchor followed by a passive prismatic extension to a platform anchor;
base and platform are congruent equilateral triangles.  The package
provides inverse and direct kinematics, the velocity-level Jacobian pair
with singularity classification, coupler-curve tracing for the
two-leg subchain, and the straight-line (Reuleaux) degeneracy analysis,
plus an independent brute-force oracle used for cross-validation.
"""

from .errors import (
    DegenerateLegPairError,
    GeometryError,
    InconsistentStateError,
    LegAtAnchorError,
    NotReuleauxError,
    ParallelSingularError,
    Rpr3Error,
    SerialSingularError,
    SingularNearbyError,
)
from .geometry import (
    DEFAULT_GEOMETRY,
    JointAngles,
    LegState,
    ManipulatorGeometry,
    Pose,
    Vec2,
    angle_difference,
    angle_differences,
    constraint_residuals,
    load_geometry,
    normalize_angle,
    normalize_angles,
    platform_anchor,
    platform_anchor_arrays,
    rotation_matrix,
    signed_extensions,
)
from .solvers import (
    DEGENERACY_ANGLE_TOL,
    DkKind,
    DkSolutionSet,
    IkSolution,
    LineDescriptor,
    classify_dk_degeneracy,
    classify_dk_degeneracy_array,
    direct_kinematics,
    inverse_kinematics,
    inverse_kinematics_array,
    mn_coefficients,
    position_from_orientation,
)
from .jacobians import (
    KinematicMatrices,
    KinematicMatricesArray,
    SingularityKind,
    SingularityReport,
    Twist,
    build_matrices,
    build_matrices_array,
    classify_singularity,
    det_A_specialized,
    forward_velocity,
    inverse_velocity,
)
from .coupler import (
    CouplerCurve,
    ReuleauxDescriptor,
    SegmentDescriptor,
    geometric_dkp,
    reuleaux_descriptor,
    rho_from_phi,
    trace_cardanic,
)
from .oracle import ScanReport, dkp_bruteforce, jacobian_fd_check

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "Rpr3Error",
    "GeometryError",
    "LegAtAnchorError",
    "DegenerateLegPairError",
    "NotReuleauxError",
    "InconsistentStateError",
    "ParallelSingularError",
    "SerialSingularError",
    "SingularNearbyError",
    # geometry
    "Vec2",
    "Pose",
    "LegState",
    "JointAngles",
    "ManipulatorGeometry",
    "DEFAULT_GEOMETRY",
    "normalize_angle",
    "normalize_angles",
    "angle_difference",
    "angle_differences",
    "rotation_matrix",
    "platform_anchor",
    "platform_anchor_arrays",
    "constraint_residuals",
    "signed_extensions",
    "load_geometry",
    # solvers
    "DEGENERACY_ANGLE_TOL",
    "DkKind",
    "DkSolutionSet",
    "IkSolution",
    "LineDescriptor",
    "inverse_kinematics",
    "inverse_kinematics_array",
    "direct_kinematics",
    "mn_coefficients",
    "classify_dk_degeneracy",
    "classify_dk_degeneracy_array",
    "position_from_orientation",
    # jacobians
    "Twist",
    "KinematicMatrices",
    "KinematicMatricesArray",
    "SingularityKind",
    "SingularityReport",
    "build_matrices",
    "build_matrices_array",
    "forward_velocity",
    "inverse_velocity",
    "classify_singularity",
    "det_A_specialized",
    # coupler
    "CouplerCurve",
    "SegmentDescriptor",
    "ReuleauxDescriptor",
    "trace_cardanic",
    "rho_from_phi",
    "geometric_dkp",
    "reuleaux_descriptor",
    # oracle
    "ScanReport",
    "dkp_bruteforce",
    "jacobian_fd_check",
]
