"""The package surface: each layer declares its public names once, in its
own ``__all__``, and ``rpr3`` re-exports every one of them."""

import rpr3
from rpr3 import coupler, errors, geometry, jacobians, oracle, solvers

LAYERS = (errors, geometry, solvers, jacobians, coupler, oracle)

# The names the package exported before it re-exported its layers' lists;
# every one of them must keep importing from ``rpr3``.
EARLIER_NAMES = """
    __version__ Rpr3Error GeometryError LegAtAnchorError DegenerateLegPairError
    NotReuleauxError InconsistentStateError ParallelSingularError
    SerialSingularError SingularNearbyError Vec2 Pose LegState JointAngles
    ManipulatorGeometry DEFAULT_GEOMETRY normalize_angle normalize_angles
    angle_difference angle_differences rotation_matrix platform_anchor
    platform_anchor_arrays constraint_residuals signed_extensions load_geometry
    DEGENERACY_ANGLE_TOL DkKind DkSolutionSet IkSolution LineDescriptor
    inverse_kinematics inverse_kinematics_array direct_kinematics
    mn_coefficients classify_dk_degeneracy classify_dk_degeneracy_array
    position_from_orientation Twist KinematicMatrices KinematicMatricesArray
    SingularityKind SingularityReport build_matrices build_matrices_array
    forward_velocity inverse_velocity classify_singularity det_A_specialized
    CouplerCurve SegmentDescriptor ReuleauxDescriptor trace_cardanic
    rho_from_phi geometric_dkp reuleaux_descriptor ScanReport dkp_bruteforce
    jacobian_fd_check
""".split()


def test_package_all_is_the_layers_lists():
    expected = ["__version__"] + [name for layer in LAYERS for name in layer.__all__]
    assert rpr3.__all__ == expected
    assert len(set(expected)) == len(expected)
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(rpr3, name) is getattr(layer, name), name


def test_every_earlier_name_still_imports():
    assert len(EARLIER_NAMES) == 59
    namespace = {}
    exec("from rpr3 import *", namespace)
    assert set(EARLIER_NAMES) <= set(namespace)


def test_errors_lists_every_exception_class():
    classes = {
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, Exception)
    }
    assert set(errors.__all__) == classes


def test_the_parallel_pair_threshold_lives_in_geometry():
    assert "PAIR_SIN_TOL" in geometry.__all__
    assert "PAIR_SIN_TOL" not in coupler.__all__
    for layer in (solvers, jacobians, coupler, oracle):
        assert layer.PAIR_SIN_TOL is geometry.PAIR_SIN_TOL
