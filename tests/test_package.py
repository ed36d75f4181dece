"""The package surface: each layer declares its public names once, in its
own ``__all__``, and ``rpr3`` re-exports every one of them."""

import ast
import dataclasses
import inspect
import re
from functools import cached_property
from pathlib import Path

import rpr3
from rpr3 import coupler, errors, geometry, jacobians, oracle, solvers

LAYERS = (errors, geometry, solvers, jacobians, coupler, oracle)

# The names the package exported before it re-exported its layers' lists;
# every one of them must keep importing from ``rpr3``.
EARLIER_NAMES = """
    __version__ Rpr3Error GeometryError LegAtAnchorError DegenerateLegPairError
    NotReuleauxError InconsistentStateError SingularNearbyError Vec2 Pose
    LegState JointAngles ManipulatorGeometry DEFAULT_GEOMETRY normalize_angle
    normalize_angles angle_differences
    platform_anchor constraint_residuals load_geometry
    DEGENERACY_ANGLE_TOL DkKind DkSolutionSet IkSolution LineDescriptor
    inverse_kinematics inverse_kinematics_array direct_kinematics
    mn_coefficients classify_dk_degeneracy position_from_orientation
    KinematicMatrices KinematicMatricesArray SingularityKind
    SingularityReport build_matrices build_matrices_array classify_singularity
    CouplerCurve SegmentDescriptor ReuleauxDescriptor trace_cardanic
    rho_from_phi geometric_dkp reuleaux_descriptor ScanReport dkp_bruteforce
""".split()


def test_package_all_is_the_layers_lists():
    expected = ["__version__"] + [name for layer in LAYERS for name in layer.__all__]
    assert rpr3.__all__ == expected
    assert len(set(expected)) == len(expected)
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(rpr3, name) is getattr(layer, name), name


def test_every_earlier_name_still_imports():
    assert len(EARLIER_NAMES) == 47
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
    # A zero-length leg has one threshold too: inverse kinematics refuses the
    # leg that the singularity report and the sweep page call serial.
    assert "SERIAL_RHO_TOL" in geometry.__all__
    for layer in (solvers, jacobians):
        assert "SERIAL_RHO_TOL" not in layer.__all__
        assert layer.SERIAL_RHO_TOL is geometry.SERIAL_RHO_TOL
    assigned = [
        path.name
        for path in sorted((ROOT / "src" / "rpr3").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assign)
        for target in node.targets
        if getattr(target, "id", None) in ("PAIR_SIN_TOL", "SERIAL_RHO_TOL", "ANCHOR_TOL")
    ]
    assert assigned == ["geometry.py", "geometry.py"]


def test_the_instant_center_is_the_best_pairs_meet():
    # det A's parallel test is the concurrency test: the left-out normal
    # misses the best pair's meet by |det A| / |sin(t_j - t_i)|.  So there is
    # no second tolerance and no loop over the three pairs.
    assert "CONCURRENCY_TOL" not in rpr3.__all__ and len(rpr3.__all__) == 61
    for path in sorted((ROOT / "src" / "rpr3").glob("*.py")):
        assert "CONCURRENCY_TOL" not in path.read_text(encoding="utf-8"), path.name
    tree = ast.parse(inspect.getsource(jacobians._normal_intersection))
    loops = (ast.For, ast.While, ast.comprehension)
    assert not [node for node in ast.walk(tree) if isinstance(node, loops)]
    assert "_best_pair" in _names_read(tree)


# The public names with no reader in src/rpr3 or bench/, each kept as a thin
# public face of a body the package runs.
KEPT_FACES = {
    "inverse_kinematics_array": "face of solvers._aim_columns, which the sweep page runs",
    "build_matrices_array": "face of jacobians._matrix_columns, which the sweep page runs",
    "KinematicMatricesArray": "the result of build_matrices_array",
    "jacobian_cs_check": "face of oracle._jacobian_cs_error, which verify runs",
    "position_from_orientation": "face of solvers._position, which direct kinematics runs",
}

ROOT = Path(__file__).resolve().parents[1]


def _names_read(tree: ast.AST) -> set[str]:
    """Names and attributes that code under ``tree`` reads; a docstring, an
    import or an ``__all__`` entry is not a read."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def _unread_public_names() -> set[str]:
    """Public names of the layers that nothing reads.

    A reader in src/rpr3 counts only while it is itself read, so a name read
    by nothing but another unread name is unread too; a reader is a module's
    top-level code, or the ``def`` or ``class`` of another name.
    """
    public = {name for layer in LAYERS for name in layer.__all__}
    readers = []  # (name defined, names it reads)
    for path in sorted((ROOT / "src" / "rpr3").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            defined = getattr(node, "name", None)  # a def or class; None for other code
            readers.append((defined, _names_read(node)))
    # The benchmark reads a name as rpr3.name, or traces it as "layer.name".
    layers = {layer.__name__.rpartition(".")[2] for layer in LAYERS}
    outside = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "rpr3":
                outside.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                match = re.fullmatch(r"(\w+)\.(\w+)", node.value)
                if match and match[1] in layers:
                    outside.add(match[2])
    unread = set()
    while True:
        read = {
            name
            for defined, names in readers
            if defined not in unread
            for name in names - {defined}
        }
        now = public - read - outside
        if now == unread:
            return unread
        unread = now


def test_every_public_name_has_a_reader():
    # A kept face that gains a reader leaves the list.
    assert _unread_public_names() == set(KEPT_FACES)


# The public class members with no reader in src/rpr3 or bench/, each kept as
# a thin public face of a body the package runs.
KEPT_MEMBERS = {}


def _public_classes() -> list[tuple[str, type]]:
    """(name, class) of each public class that a layer defines."""
    return [
        (name, cls)
        for layer in LAYERS
        for name in layer.__all__
        if inspect.isclass(cls := getattr(layer, name)) and cls.__module__ == layer.__name__
    ]


def public_members() -> list[str]:
    """Each public method, property or cached property defined in a public
    class of the layers, as "Class.member".  Dunders stay outside: the AST
    cannot see protocol use, such as iteration or an operator."""
    kinds = (property, cached_property, classmethod, staticmethod)
    return [
        f"{name}.{attr}"
        for name, cls in _public_classes()
        for attr, member in vars(cls).items()
        if not attr.startswith("_") and (inspect.isfunction(member) or isinstance(member, kinds))
    ]


def public_fields() -> list[str]:
    """Each field of a public dataclass of the layers, as "Class.field"."""
    return [
        f"{name}.{field.name}"
        for name, cls in _public_classes()
        if dataclasses.is_dataclass(cls)
        for field in dataclasses.fields(cls)
    ]


def _attributes_read() -> set[str]:
    """Attributes read in src/rpr3 or bench/; a read of a function's own
    name inside its own body is not a read."""
    reads = set()
    for path in [*sorted((ROOT / "src" / "rpr3").glob("*.py")), *sorted((ROOT / "bench").glob("*.py"))]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = {
            id(node)
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function)
            if getattr(node, "attr", None) == function.name
        }
        reads |= {
            node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and id(node) not in own
        }
    return reads


def test_every_public_member_has_a_reader():
    # A member is matched by its name alone, as the AST knows no types.  A
    # kept face that gains a reader leaves the list.
    reads = _attributes_read()
    unread = {member for member in public_members() if member.rpartition(".")[2] not in reads}
    assert unread == set(KEPT_MEMBERS)


# The public record fields with no reader in src/rpr3 or bench/, each kept
# for a reader outside them.
KEPT_FIELDS = {
    "ScanReport.residual_max": "the scan's accuracy, which the tests gate and a report is to carry",
}


def test_every_public_field_has_a_reader():
    # A field is matched by its name alone, as a member is, so one that
    # shares its name with a field read elsewhere passes.  A kept field that
    # gains a reader leaves the list.
    reads = _attributes_read()
    unread = {field for field in public_fields() if field.rpartition(".")[2] not in reads}
    assert unread == set(KEPT_FIELDS)


def test_callers_name_the_form_and_place_anchors_through_one_body():
    # The caller names the arithmetic, _FLOATS or _COLUMNS, and no function
    # guesses it from a value; _place_anchors is the one placement body, and
    # libm reaches arrays only through _COLUMNS.  Outside geometry, anchors
    # are read as _anchor_pairs floats, not as Vec2 attributes.
    for path in sorted((ROOT / "src" / "rpr3").glob("*.py")):
        module, tree = path.stem, ast.parse(path.read_text(encoding="utf-8"))
        nodes = list(ast.walk(tree))
        names = _names_read(tree) | {
            getattr(node, "name", None)
            for node in nodes
            if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.alias))
        }
        assert not {"_form", "_leg_offsets", "_leg_components"} & names, module
        guesses = [
            node.lineno
            for node in nodes
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
            and "ndarray" in set().union(*map(_names_read, node.args[1:]))
        ]
        assert guesses == [], (module, guesses)
        if module != "geometry":
            attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
            assert "_libm" not in names, module
            assert not {"base_anchor", "anchors"} & attributes, module


# The array kernels, each with the module that defines it.
ARRAY_KERNELS = {
    "normalize_angles": "geometry", "_leg_columns": "geometry", "_aim_columns": "solvers",
    "inverse_kinematics_array": "solvers", "build_matrices_array": "jacobians",
    "_matrix_columns": "jacobians",
}


def test_array_kernels_fail_only_through_their_scalar_twins_rules():
    # One row check, geometry._check_rows, runs a scalar twin's rule on each
    # flagged row; the kernels reach it and raise no message of their own.
    # The names of the helpers it replaced are split, so a grep finds none.
    gone = ("_first_" + "nonfinite", "_row" + "_of")
    for path in [*(ROOT / "src").glob("**/*.py"), *(ROOT / "tests").glob("**/*.py")]:
        text = path.read_text(encoding="utf-8")
        assert not any(name in text for name in gone), path.name
    defined = {}
    for path in sorted((ROOT / "src" / "rpr3").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                defined.setdefault(node.name, []).append((path.stem, node))
    assert [module for module, _ in defined["_check_rows"]] == ["geometry"]
    for name, module in ARRAY_KERNELS.items():
        [(where, node)] = defined[name]
        assert where == module, name
        assert [n.lineno for n in ast.walk(node) if isinstance(n, ast.Raise)] == [], name
        assert _names_read(node) & ({"_check_rows"} | set(ARRAY_KERNELS) - {name}), name


def test_one_call_counter_serves_the_tests_and_ci():
    # tests/trend.py holds the one profiler hook, which the budget tests and
    # the CI summary read; the package and the benchmark install none.
    hook = "set" + "profile"
    patterns = ("tests/**/*.py", ".github/**/*.yml", "src/**/*.py", "bench/**/*.py")
    files = [path for pattern in patterns for path in ROOT.glob(pattern)]
    hooked = [path.relative_to(ROOT).as_posix() for path in files if hook in path.read_text(encoding="utf-8")]
    assert hooked == ["tests/trend.py"]
    # The job summary is written by one step, a single call to that script.
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    summary = [line.strip() for line in workflow.splitlines() if "GITHUB_STEP_SUMMARY" in line]
    assert summary == ['run: python tests/trend.py >> "$GITHUB_STEP_SUMMARY"']


def test_the_benchmark_copies_the_package_tolerances_it_checks_with():
    # bench/workloads.py keeps its own copies, so that the benchmark's checks
    # stand apart from the package, as the oracle does; they must still
    # hold the package's values.  The file is read, not imported.
    values = {}
    for node in ast.parse((ROOT / "bench" / "workloads.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SCALE", "POSE_TOL", "NULL_REDUCTION"):
                values[name] = eval(ast.unparse(node.value), {"max": max}, values)
    assert values["POSE_TOL"] == geometry.POSE_TOL * max(values["SCALE"], 1.0)
    assert values["NULL_REDUCTION"] == solvers.REDUCTION_NULL_TOL
