"""The package surface: each layer declares its public names once, in its
own ``__all__``, and ``rpr3`` re-exports every one of them."""

import ast
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
KEPT_MEMBERS = {
    "KinematicMatricesArray.singularity_kinds": "face of jacobians._kind_index, which the sweep page runs",
}


def public_members() -> list[str]:
    """Each public method, property or cached property defined in a public
    class of the layers, as "Class.member".  Dunders stay outside: the AST
    cannot see protocol use, such as iteration or an operator."""
    kinds = (property, cached_property, classmethod, staticmethod)
    return [
        f"{name}.{attr}"
        for layer in LAYERS
        for name in layer.__all__
        if inspect.isclass(cls := getattr(layer, name)) and cls.__module__ == layer.__name__
        for attr, member in vars(cls).items()
        if not attr.startswith("_") and (inspect.isfunction(member) or isinstance(member, kinds))
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
