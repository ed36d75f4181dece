"""Frame conventions, anchor placement, and the residual sign convention."""

import copy
import dataclasses
import json
import math
import pickle

import numpy as np
import pytest

from rpr3 import geometry
from rpr3.coupler import geometric_dkp
from rpr3.errors import GeometryError
from rpr3.geometry import (
    DEFAULT_GEOMETRY,
    POSE_TOL,
    JointAngles,
    LegState,
    ManipulatorGeometry,
    Pose,
    Vec2,
    cluster_poses,
    constraint_residuals,
    load_geometry,
    normalize_angle,
    platform_anchor,
    pose_distance,
)
from rpr3.jacobians import (
    SingularityKind,
    SingularityReport,
    build_matrices,
    build_matrices_array,
    classify_singularity,
)
from rpr3.oracle import dkp_bruteforce
from rpr3.solvers import (
    DkKind,
    DkSolutionSet,
    IkSolution,
    classify_dk_degeneracy,
    direct_kinematics,
    inverse_kinematics,
    mn_coefficients,
)
from _reference import (
    angle_difference,
    det_A_specialized,
    jacobian_fd_check,
    rotation_matrix,
    signed_extensions,
)

SQRT3 = math.sqrt(3.0)


def test_normalize_angle_half_open_range():
    assert normalize_angle(0.0) == 0.0
    assert normalize_angle(math.pi) == math.pi
    # -pi is the excluded endpoint; it folds to +pi.
    assert normalize_angle(-math.pi) == math.pi
    assert abs(normalize_angle(3.0 * math.pi) - math.pi) < 1e-15
    assert abs(normalize_angle(7.1) - (7.1 - 2.0 * math.pi)) < 1e-15


def test_normalize_angle_idempotent_on_many_values():
    rng = np.random.default_rng(7)
    for raw in rng.uniform(-50.0, 50.0, 500):
        a = normalize_angle(float(raw))
        assert -math.pi < a <= math.pi
        assert normalize_angle(a) == a


def _fold_by_remainder(angle):
    """normalize_angle without its in-range shortcut."""
    if not math.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle!r}")
    folded = math.remainder(angle, 2.0 * math.pi)
    if folded <= -math.pi:
        folded += 2.0 * math.pi
    return folded


def test_normalize_angle_shortcut_matches_the_fold_bit_for_bit():
    # An in-range angle is returned as a float without a fold: its IEEE
    # remainder is itself, and -pi still takes the fold to pi.
    pi = math.pi
    edges = [0.0, -0.0, pi, -pi, math.nextafter(pi, 0.0), math.nextafter(-pi, 0.0),
             3.0 * pi, -3.0 * pi, 0, 3, -3, 4, -7, 10**20, True, False,
             np.float64(-0.0), np.float64(-pi), np.float64(2.5), np.float64(9.0)]
    rng = np.random.default_rng(44)
    values = edges + rng.uniform(-pi, pi, 50_000).tolist() + rng.uniform(-50.0, 50.0, 50_000).tolist()
    for angle in values:
        got, want = normalize_angle(angle), _fold_by_remainder(angle)
        assert type(got) is float and repr(got) == repr(want), angle
    for bad in (math.nan, math.inf, -math.inf, np.float64(math.nan)):
        with pytest.raises(ValueError, match="angle must be finite"):
            normalize_angle(bad)


@pytest.mark.parametrize(
    "theta, pair",
    [
        ((0.3, 0.3, 1.0), (1, 2, 0)),  # (2, 3) and (3, 1) tie
        ((0.0, 1.5, 3.0), (0, 1, 2)),  # (1, 2) and (2, 3) tie
        ((1.5, 3.0, 0.0), (0, 1, 2)),  # (1, 2) and (3, 1) tie
        ((0.4, 0.4, 0.4), (0, 1, 2)),  # all three tie
        ((0.2, 0.9, 2.0), (0, 2, 1)),  # no tie: (3, 1) is best
    ],
)
def test_best_pair_takes_the_first_pair_in_cycle_order_on_a_tie(theta, pair):
    assert geometry._best_pair(theta) == pair


def _best_pair_by_max(t):
    """The reference: the first of the three pairs in cycle order with the
    largest |sin|, as ``max`` with a key picks it."""
    return max(((0, 1, 2), (1, 2, 0), (0, 2, 1)), key=lambda p: abs(math.sin(t[p[1]] - t[p[0]])))


def _near_ties(rng, count):
    """Triples on which two of the three gaps are d and d moved by up to 3
    ulps, for each pair of pairs, and triples spread by 2 pi / 3."""
    out = []
    for a, d in rng.uniform(-math.pi, math.pi, (count, 2)).tolist():
        for k in range(-3, 4):
            e = d
            for _ in range(abs(k)):
                e = math.nextafter(e, math.copysign(math.inf, k))
            out += [(a, a + d, a + d + e), (a, a + d, a - e), (a, a + d + e, a + d)]
        out.append((a, a + 2.0 * math.pi / 3.0, a - 2.0 * math.pi / 3.0))
    return out


def _tie_orbit(t):
    """``t``, its two C3 images and the mirrors of all three, as dk takes them."""
    def c3(u):
        return tuple(normalize_angle(a + 2.0 * math.pi / 3.0) for a in (u[2], u[0], u[1]))

    def mirror(u):
        return tuple(normalize_angle(math.pi - a) for a in (u[1], u[0], u[2]))

    images = [t, c3(t), c3(c3(t))]
    return images + [mirror(u) for u in images]


def test_best_pair_matches_the_max_over_the_cycle():
    rng = np.random.default_rng(35)
    uniform = [tuple(row) for row in rng.uniform(-math.pi, math.pi, (20_000, 3)).tolist()]
    near = _near_ties(rng, 500)
    for t in uniform + near + _tie_orbit((0.3, 0.3, 1.0)):
        assert geometry._best_pair(t) == _best_pair_by_max(t), t
    # The near-tie draws hold exact ties of |sin| as well as gaps a few ulps apart.
    sines = [sorted(abs(math.sin(t[j] - t[i])) for i, j in ((0, 1), (1, 2), (0, 2))) for t in near]
    assert sum(s[1] == s[2] or s[0] == s[1] for s in sines) > 100


def test_angle_difference_wraps():
    assert angle_difference(0.1, 0.1 + 2.0 * math.pi) < 1e-15
    assert abs(angle_difference(-3.0, 3.0) - (2.0 * math.pi - 6.0)) < 1e-15
    # period pi: direction-reversal equivalence used by the degeneracy tests
    assert angle_difference(0.2, 0.2 + math.pi, period=math.pi) < 1e-15


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_vec2_rejects_nonfinite(bad):
    with pytest.raises(GeometryError):
        Vec2(bad, 0.0)
    with pytest.raises(GeometryError):
        Vec2(0.0, bad)


def test_pose_normalizes_orientation():
    p = Pose(0.1, -0.2, 5.0 * math.pi)
    assert abs(p.phi - math.pi) < 1e-15
    assert (p.x, p.y) == (0.1, -0.2)
    assert p.as_tuple() == (0.1, -0.2, p.phi)


def test_rotation_matrix_is_special_orthogonal():
    rng = np.random.default_rng(11)
    for phi in rng.uniform(-math.pi, math.pi, 1000):
        r = rotation_matrix(float(phi))
        assert np.allclose(r.T @ r, np.eye(2), atol=1e-15)
        assert abs(np.linalg.det(r) - 1.0) < 1e-15
    assert np.array_equal(rotation_matrix(0.0), np.eye(2))


def test_default_geometry_vertices():
    assert DEFAULT_GEOMETRY._anchor_pairs == ((0.0, 0.0), (1.0, 0.0), (0.5, SQRT3 / 2.0))
    for leg in (0, 4):
        with pytest.raises(ValueError):
            platform_anchor(Pose(0.0, 0.0, 0.0), leg)


def test_geometry_scaling():
    g = ManipulatorGeometry(2.0)
    assert g._anchor_pairs[1:] == ((2.0, 0.0), (1.0, SQRT3))
    with pytest.raises(GeometryError):
        ManipulatorGeometry(0.0)
    with pytest.raises(GeometryError):
        ManipulatorGeometry(-1.0)


def test_geometry_derives_scaled_triangle_from_scale():
    # The scale is the only input: the anchors are products of it with the
    # unit triangle, so no other layout can be expressed.
    g = ManipulatorGeometry(2.5)
    assert g._anchor_pairs == ((0.0, 0.0), (2.5, 0.0), (1.25, SQRT3 / 2.0 * 2.5))
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(GeometryError):
            ManipulatorGeometry(bad)


def test_geometry_scale_must_lie_in_the_working_range():
    for scale in (1e-100, 1e100):
        assert ManipulatorGeometry(scale)._anchor_pairs[1] == (scale, 0.0)
    for bad in (5e-324, 9e-151, 1e-150, 9e-101, 1e-200, 1.0000000000000002e100, 1e101, 1e300,
                1e301, 1.7976931348623157e308):
        with pytest.raises(GeometryError, match=r"scale must be in \[1e-100, 1e\+100\]"):
            ManipulatorGeometry(bad)


def test_residuals_and_extensions_refuse_a_result_past_the_float_range():
    # Along or across axes at pi/4, offsets of (DBL_MAX, +-DBL_MAX) sum to
    # about 1.41 DBL_MAX: an error, as the IK leg length gives, not inf.
    top, theta = 1.7976931348623157e308, (math.pi / 4.0,) * 3
    with pytest.raises(GeometryError, match=r"rho must be finite, got inf"):
        signed_extensions(Pose(top, top, 0.0), theta)
    with pytest.raises(GeometryError, match=r"residual must be finite, got inf"):
        constraint_residuals(Pose(top, -top, 0.0), theta)


def test_leg_offsets_stay_finite_at_the_largest_scale():
    # Each term added to a position is at most the scale, 1e100, below half
    # an ulp of the largest float (about 1e292): no finite pose overflows.
    far = ManipulatorGeometry(1e100)
    top = 1.7976931348623157e308
    corners = [(sx * top, sy * top) for sx in (1, -1) for sy in (1, -1)]
    phis = [0.0, 0.5, math.pi / 2, 2.0, math.pi, -1.0, -math.pi / 2]
    with np.errstate(all="raise"):
        for x, y in corners:
            for phi in phis:
                c, s = math.cos(phi), math.sin(phi)
                for leg in geometry._place_anchors(x, y, c, s, far._anchor_pairs):
                    assert all(map(math.isfinite, leg))
        xs = np.repeat([x for x, _ in corners], len(phis))
        ys = np.repeat([y for _, y in corners], len(phis))
        _, _, legs = geometry._leg_columns(xs, ys, np.tile(phis, len(corners)), far)
        assert all(np.isfinite(column).all() for leg in legs for column in leg)


def test_platform_anchor_frozen_value():
    # independently derived: a2 rotated by 0.5 rad and shifted by (0.3, 0.2)
    b2 = platform_anchor(Pose(0.3, 0.2, 0.5), 2)
    assert abs(b2.x - 1.1775825618903728) < 1e-15
    assert abs(b2.y - 0.679425538604203) < 1e-15


def test_platform_anchors_at_identity_pose_sit_on_base():
    for scale in (1.0, 2.0):
        g = ManipulatorGeometry(scale)
        for leg in (1, 2, 3):
            anchor = platform_anchor(Pose(0.0, 0.0, 0.0), leg, g)
            assert tuple(anchor) == g._anchor_pairs[leg - 1]


def test_first_anchor_is_the_reference_point():
    pose = Pose(-0.4, 0.9, 2.2)
    assert platform_anchor(pose, 1) == Vec2(-0.4, 0.9)
    assert tuple(platform_anchor(pose, 1)) == (-0.4, 0.9)


def test_residual_sign_convention():
    # residual_i = sin(t_i) dx - cos(t_i) dy, the cross product of the
    # anchor offset with the leg direction; frozen by a hand example.
    r = constraint_residuals(Pose(0.1, 0.0, 0.0), (math.pi / 2.0, 0.0, 0.0))
    assert abs(r[0] - 0.1) < 1e-16
    r = constraint_residuals(Pose(0.0, 0.1, 0.0), (0.0, 0.0, 0.0))
    assert abs(r[0] + 0.1) < 1e-16


def test_residuals_vanish_at_identity_for_any_angles():
    rng = np.random.default_rng(3)
    pose = Pose(0.0, 0.0, 0.0)
    for theta in rng.uniform(-math.pi, math.pi, (200, 3)):
        assert constraint_residuals(pose, theta) == (0.0, 0.0, 0.0)


def test_signed_extensions_measure_anchor_projection():
    rng = np.random.default_rng(4)
    for _ in range(100):
        pose = Pose(*rng.uniform(-0.8, 1.8, 2), rng.uniform(-math.pi, math.pi))
        for leg in (1, 2, 3):
            (bx, by), (ax, ay) = platform_anchor(pose, leg), DEFAULT_GEOMETRY._anchor_pairs[leg - 1]
            direction = math.atan2(by - ay, bx - ax)
            length = math.hypot(bx - ax, by - ay)
            theta = [0.0, 0.0, 0.0]
            theta[leg - 1] = direction
            ext = signed_extensions(pose, theta)[leg - 1]
            assert abs(ext - length) < 1e-12
            theta[leg - 1] = direction + math.pi
            ext = signed_extensions(pose, theta)[leg - 1]
            assert abs(ext + length) < 1e-12


def test_leg_state_folds_negative_extension():
    leg = LegState(0.2, -0.5)
    assert leg.rho == 0.5
    assert abs(leg.theta - normalize_angle(0.2 + math.pi)) < 1e-15


def test_leg_state_rejects_nonfinite_extension():
    with pytest.raises(ValueError):
        LegState(0.0, math.nan)


def test_joint_angles_normalize_and_iterate():
    ja = JointAngles(3.0 * math.pi, 0.25, -math.pi)
    assert abs(ja.theta1 - math.pi) < 1e-15
    assert ja.theta3 == math.pi
    assert ja.as_tuple() == tuple(ja)


# The constructor rules of the four value objects, written out on their own:
# the fields each stores for its arguments, in declaration order.
def _vec2_rule(x, y):
    return (x, y)  # stored as given


def _pose_rule(x, y, phi):
    return (float(x), float(y), _fold_by_remainder(phi))


def _leg_state_rule(theta, rho):
    if rho < 0.0:
        theta, rho = theta + math.pi, -rho
    return (_fold_by_remainder(theta), rho)


def _joint_angles_rule(theta1, theta2, theta3):
    return tuple(map(_fold_by_remainder, (theta1, theta2, theta3)))


_VALUE_OBJECT_RULES = {
    Vec2: _vec2_rule, Pose: _pose_rule, LegState: _leg_state_rule, JointAngles: _joint_angles_rule,
}


def _same(a, b):
    """Equal bit for bit and of one type."""
    return type(a) is type(b) and repr(a) == repr(b)


def _value_object_draws(cls, count, seed):
    """Seeded argument tuples for ``cls`` over finite edges and random draws:
    +-pi, -0.0, ints, numpy float64 and up to a million turns of 2 pi."""
    pi = math.pi
    edges = [pi, -pi, math.nextafter(pi, 0.0), -0.0, 0.0, 0, 3, -7, np.float64(-pi),
             np.float64(2.5), np.float64(-0.0), 40.0 * pi, 1e6 * math.tau + 0.25,
             -(10**5) * math.tau - 1.0]
    rng = np.random.default_rng(seed)
    turns = rng.integers(-10**6, 10**6, 200) * math.tau + rng.uniform(-pi, pi, 200)
    pool = edges + rng.uniform(-50.0, 50.0, 200).tolist() + turns.tolist()
    picks = rng.integers(len(pool), size=(count, len(dataclasses.fields(cls))))
    return [tuple(pool[i] for i in row) for row in picks]


@pytest.mark.parametrize("cls", list(_VALUE_OBJECT_RULES), ids=lambda cls: cls.__name__)
def test_value_objects_store_each_field_by_their_rule(cls):
    rule = _VALUE_OBJECT_RULES[cls]
    names = [f.name for f in dataclasses.fields(cls)]
    for args in _value_object_draws(cls, 3000, 33):
        want, keywords = rule(*args), dict(zip(names, args))
        mixed = dict(zip(names[1:], args[1:]))
        for obj in (cls(*args), cls(**keywords), cls(args[0], **mixed)):
            got = tuple(getattr(obj, name) for name in names)
            assert all(map(_same, got, want)), (cls.__name__, args, got, want)
    with pytest.raises(TypeError):
        cls(*([0.5] * (len(names) - 1)))


def _nonfinite_arguments():
    """(class, arguments, exception type, message) for nan and +-inf in each
    field; the first bad field in declaration order is the one named."""
    cases = []
    for bad in (math.nan, math.inf, -math.inf):
        angle = (ValueError, f"angle must be finite, got {bad!r}")
        cases += [
            (Vec2, (bad, 0.5), GeometryError, f"components must be finite, got ({bad!r}, 0.5)"),
            (Vec2, (0.5, bad), GeometryError, f"components must be finite, got (0.5, {bad!r})"),
            (Pose, (bad, 0.5, 0.1), ValueError, f"position must be finite, got ({bad!r}, 0.5)"),
            (Pose, (0.5, bad, bad), ValueError, f"position must be finite, got (0.5, {bad!r})"),
            (Pose, (0.5, 0.5, bad), *angle),
            (LegState, (bad, 0.5), *angle),
            (LegState, (bad, -0.5), *angle),
            (LegState, (0.5, bad), GeometryError, f"rho must be finite, got {bad!r}"),
            (LegState, (bad, bad), GeometryError, f"rho must be finite, got {bad!r}"),
            (JointAngles, (bad, 0.5, 0.5), *angle),
            (JointAngles, (0.5, bad, 0.5), *angle),
            (JointAngles, (0.5, 0.5, bad), *angle),
            (JointAngles, (bad, -bad, -bad), *angle),
            (JointAngles, (0.5, bad, -bad), *angle),
        ]
    return cases


@pytest.mark.parametrize("cls, args, error, message", _nonfinite_arguments())
def test_value_objects_reject_nonfinite_fields(cls, args, error, message):
    with pytest.raises(error) as info:
        cls(*args)
    assert type(info.value) is error and str(info.value) == message


def test_value_objects_revalidate_on_replace():
    pose = dataclasses.replace(Pose(0.1, 0.2, 0.3), phi=7.0)
    assert _same(pose.phi, _fold_by_remainder(7.0))
    assert _same(dataclasses.replace(pose, x=2).x, 2.0)
    with pytest.raises(GeometryError, match="components must be finite"):
        dataclasses.replace(Vec2(1.0, 2.0), x=math.nan)
    leg = dataclasses.replace(LegState(0.2, 0.5), rho=-0.5)
    assert (leg.theta, leg.rho) == (_fold_by_remainder(0.2 + math.pi), 0.5)
    angles = dataclasses.replace(JointAngles(0.1, 0.2, 0.3), theta2=-math.pi)
    assert angles.as_tuple() == (0.1, math.pi, 0.3)
    with pytest.raises(ValueError, match="angle must be finite"):
        dataclasses.replace(angles, theta3=math.inf)


@pytest.mark.parametrize("cls", list(_VALUE_OBJECT_RULES), ids=lambda cls: cls.__name__)
def test_value_objects_are_frozen_hashable_and_copyable(cls):
    names = [f.name for f in dataclasses.fields(cls)]
    args = _value_object_draws(cls, 1, 34)[0]
    obj = cls(*args)
    values = tuple(getattr(obj, name) for name in names)
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)
    assert tuple(getattr(obj, name) for name in names) == values
    assert repr(obj) == f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in zip(names, values))})"
    twin = cls(*args)
    assert twin == obj and hash(twin) == hash(obj) == hash(values)
    assert obj != cls(*values[:-1], values[-1] + 1.0)
    assert obj != values
    for copied in (copy.copy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(copied) is cls and copied == obj and hash(copied) == hash(obj)
        assert all(_same(getattr(copied, n), v) for n, v in zip(names, values))
        assert repr(copied) == repr(obj)


def _record_cases():
    """Per result record: its field names, two sets of field values that
    differ in every field, and the defaults of its optional fields."""
    ik = inverse_kinematics(Pose(0.4, 0.3, 0.2), branch=(0, 1, 0))
    other_ik = inverse_kinematics(Pose(-0.2, 0.5, 1.0), branch=(1, 1, 0))
    dk = direct_kinematics((0.2, 0.9, 2.0))
    line = direct_kinematics((0.1, 0.1 + math.pi / 3.0, 0.1 - math.pi / 3.0)).continuum
    return {
        IkSolution: (("legs", "branch"), (ik.legs, ik.branch), (other_ik.legs, other_ik.branch), {}),
        SingularityReport: (
            ("kind", "det_a", "det_b", "zero_rho_legs", "intersection_point", "translation_case"),
            (SingularityKind.PARALLEL, 1e-12, 0.25, (), Vec2(0.1, -0.2), False),
            (SingularityKind.BOTH, -3e-11, -0.5, (2,), None, True),
            {"intersection_point": None, "translation_case": False},
        ),
        DkSolutionSet: (
            ("kind", "poses", "m", "n", "continuum", "coincident"),
            (dk.kind, dk.poses, dk.m, dk.n, None, False),
            (DkKind.CONTINUUM_REULEAUX, dk.poses[:1], -dk.m, 0.5, line, True),
            {"continuum": None, "coincident": False},
        ),
    }


_RECORDS = _record_cases()


@pytest.mark.parametrize("cls", list(_RECORDS), ids=lambda cls: cls.__name__)
def test_result_records_are_frozen_hashable_and_copyable(cls):
    names, values, others, defaults = _RECORDS[cls]
    assert tuple(f.name for f in dataclasses.fields(cls)) == names
    obj = cls(*values)
    assert cls(**dict(zip(names, values))) == obj
    assert all(getattr(obj, n) is v for n, v in zip(names, values))
    required = len(names) - len(defaults)
    short = cls(*values[:required])
    assert {n: getattr(short, n) for n in names[required:]} == defaults
    assert all(type(getattr(short, n)) is type(v) for n, v in defaults.items())
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)
    assert tuple(getattr(obj, name) for name in names) == values
    assert repr(obj) == f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in zip(names, values))})"
    twin = cls(*values)
    assert twin == obj and hash(twin) == hash(obj) == hash(values)
    assert obj != values
    for k, (name, other) in enumerate(zip(names, others)):
        moved = dataclasses.replace(obj, **{name: other})
        assert type(moved) is cls and moved != obj
        assert moved == cls(*values[:k], other, *values[k + 1:])
        assert all(getattr(moved, n) is (other if n == name else v) for n, v in zip(names, values))
    for copied in (copy.copy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(copied) is cls and copied == obj and hash(copied) == hash(obj)
        assert repr(copied) == repr(obj)


def test_load_geometry_roundtrip(tmp_path):
    path = tmp_path / "geom.json"
    path.write_text(json.dumps({"scale": 2.5}))
    g = load_geometry(path)
    assert g.scale == 2.5
    assert g._anchor_pairs[1] == (2.5, 0.0)


def test_load_geometry_rejects_unknown_keys(tmp_path):
    path = tmp_path / "geom.json"
    path.write_text(json.dumps({"scale": 1.0, "skew": 0.2}))
    with pytest.raises(GeometryError):
        load_geometry(path)


def test_load_geometry_rejects_non_object(tmp_path):
    path = tmp_path / "geom.json"
    path.write_text("[1, 2]")
    with pytest.raises(GeometryError):
        load_geometry(path)


def test_load_geometry_reads_numbers_only(tmp_path):
    path = tmp_path / "geom.json"
    path.write_text('{"scale": 3}')
    assert load_geometry(path).scale == 3.0
    for text in ('{"scale": true}', '{"scale": "2"}', '{"scale": null}'):
        path.write_text(text)
        with pytest.raises(GeometryError, match="scale must be a number"):
            load_geometry(path)


# Each once escaped as a traceback: OverflowError in float(scale),
# UnicodeDecodeError and RecursionError from the JSON reader.
HOSTILE_GEOMETRY_FILES = {
    "integer-past-any-float": b'{"scale": 1' + b"0" * 400 + b"}",
    "not-utf8": b"\xff\xfe",
    "nested-too-deep": b"[" * 100_000,
}


@pytest.mark.parametrize("content", HOSTILE_GEOMETRY_FILES.values(), ids=HOSTILE_GEOMETRY_FILES)
def test_load_geometry_rejects_unreadable_content(tmp_path, content):
    path = tmp_path / "geom.json"
    path.write_bytes(content)
    with pytest.raises(GeometryError):
        load_geometry(path)


def test_load_geometry_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_geometry(tmp_path / "absent.json")


def test_pose_distance_wraps_orientation():
    assert pose_distance(Pose(0.1, -0.2, 0.3), Pose(0.4, -0.2, 0.3)) == abs(0.1 - 0.4)
    assert pose_distance(Pose(0.0, 0.0, 0.0), Pose(0.0, 0.5, 0.2)) == 0.5
    # Orientations either side of the +-pi seam are close, not 2 pi apart.
    near = pose_distance(Pose(0.0, 0.0, math.pi - 1e-9), Pose(0.0, 0.0, -math.pi + 1e-9))
    assert near < 3e-9
    assert pose_distance(Pose(0.0, 0.0, math.pi), Pose(0.0, 0.0, -math.pi)) == 0.0
    assert abs(pose_distance(Pose(0.0, 0.0, 3.0), Pose(0.0, 0.0, -3.0)) - (math.tau - 6.0)) < 1e-15


def test_cluster_poses_keeps_first_of_each_cluster_in_input_order():
    g = ManipulatorGeometry(0.125)  # dyadic, so tol * s / s == tol
    s = g.scale
    a = Pose(0.5 * s, 0.5 * s, math.pi - 1e-9)
    b = Pose(0.0, 0.0, 0.125)
    poses = [
        a,
        b,
        Pose(0.5 * s + 0.5 * POSE_TOL * s, 0.5 * s, -math.pi + 1e-9),  # a across the seam
        Pose(0.0, 0.0, 0.125 + 0.5 * POSE_TOL),  # b again
        Pose(POSE_TOL * s, 0.0, 0.125),  # gap equals POSE_TOL: a cluster of its own
    ]
    assert cluster_poses(poses, g) == [a, b, poses[4]]
    assert cluster_poses(list(reversed(poses)), g) == [poses[4], poses[3], poses[2]]
    assert cluster_poses([], g) == []


@pytest.mark.parametrize("scale", [1e-9, 0.25, 1.0, 3.0, 1e6])
def test_pose_distance_measures_positions_in_units_of_the_scale(scale):
    # One rule at every scale: position gaps count in units of the scale,
    # the orientation gap as it is, and POSE_TOL bounds both.
    g = ManipulatorGeometry(scale)
    far = pose_distance(Pose(0.0, 0.0, 0.0), Pose(0.5 * scale, -2.0 * scale, 0.25), g)
    assert far == pytest.approx(2.0, rel=1e-15)
    base = Pose(0.0, 0.0, 0.0)
    for inside, outside in (
        (Pose(0.9 * POSE_TOL * scale, 0.0, 0.0), Pose(1.1 * POSE_TOL * scale, 0.0, 0.0)),
        (Pose(0.0, 0.9 * POSE_TOL * scale, 0.0), Pose(0.0, 1.1 * POSE_TOL * scale, 0.0)),
        (Pose(0.0, 0.0, 0.9 * POSE_TOL), Pose(0.0, 0.0, 1.1 * POSE_TOL)),
    ):
        assert cluster_poses([base, inside, outside], g) == [base, outside]


_POSE = Pose(0.3, 0.2, 0.1)
_ANGLE_ENTRY_POINTS = {
    "mn_coefficients": mn_coefficients,
    "classify_dk_degeneracy": classify_dk_degeneracy,
    "direct_kinematics": direct_kinematics,
    "geometric_dkp": geometric_dkp,
    "dkp_bruteforce": dkp_bruteforce,
    "constraint_residuals": lambda t: constraint_residuals(_POSE, t),
    "signed_extensions": lambda t: signed_extensions(_POSE, t),
    "det_A_specialized": det_A_specialized,
    "build_matrices": lambda t: build_matrices(_POSE, t),
    "classify_singularity": lambda t: classify_singularity(_POSE, t),
    "jacobian_fd_check": lambda t: jacobian_fd_check(_POSE, t),
    # The array kernel names its first non-finite row.
    "build_matrices_array": lambda t: build_matrices_array(
        [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [(0.1, 0.2, 0.3), t]
    ),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", sorted(_ANGLE_ENTRY_POINTS))
def test_nonfinite_joint_angle_is_rejected_by_every_entry_point(entry, bad):
    theta = (bad, 0.2, 0.3)
    message = r"joint angles must be finite, got \((nan|inf|-inf), 0\.2, 0\.3\)"
    with pytest.raises(ValueError, match=message):
        _ANGLE_ENTRY_POINTS[entry](theta)
