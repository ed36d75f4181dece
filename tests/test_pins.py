"""Bit-level pins of the scalar kinematics on seeded inputs.

Each digest is the sha256 of the ``repr`` of every result (floats repr
exactly, so one changed bit changes the digest), captured before the
geometry and the leg-offset code were consolidated.  Any rewrite of those
paths must leave every digest as it is.  The digests depend on libm and
LAPACK rounding, as do the sweep artifact pins in ``test_cli.py``.
"""

import hashlib
import math

import numpy as np
import pytest

from rpr3.coupler import geometric_dkp
from rpr3.errors import Rpr3Error
from rpr3.geometry import (
    ManipulatorGeometry,
    Pose,
    constraint_residuals,
    signed_extensions,
)
from rpr3.jacobians import build_matrices, classify_singularity
from rpr3.oracle import dkp_bruteforce
from rpr3.solvers import direct_kinematics, inverse_kinematics

POSE_GROUPS = ("ik", "residuals", "extensions", "matrices", "singularity")
BRANCHES = [(i >> 2 & 1, i >> 1 & 1, i & 1) for i in range(8)]

# Continuum, near-continuum and printed-constant triples next to the seeded
# ones, so that the clustering and continuum paths are pinned too.
SPECIAL_TRIPLES = [
    (0.3, 0.3 + math.pi / 3.0, 0.3 - math.pi / 3.0),
    (0.4, 0.4, 0.4 + math.pi),
    (0.0, 1.04719755, -1.04719755),
    (0.2, 0.2 - math.pi / 3.0, 0.2 + math.pi / 3.0),
    (1.0, 1.0 + math.pi / 3.0 + 1e-6, 1.0 - math.pi / 3.0),
]


class _Digest:
    def __init__(self):
        self._hash = hashlib.sha256()

    def add(self, call, *args):
        try:
            value = call(*args)
        except Rpr3Error as exc:
            value = (type(exc).__name__, str(exc))
        self._hash.update(repr(value).encode())
        self._hash.update(b"\n")

    def hexdigest(self):
        return self._hash.hexdigest()


def _matrices(pose, theta, geometry):
    mats = build_matrices(pose, theta, geometry)
    return (mats.a_matrix.tolist(), mats.b_matrix.tolist(), mats.det_a, mats.det_b)


def _pose_digests(scale, count=500, seed=20):
    geometry = ManipulatorGeometry.from_scale(scale)
    rng = np.random.default_rng(seed)
    digests = {name: _Digest() for name in POSE_GROUPS}
    for x, y, phi, branch_index, t1, t2, t3 in zip(
        *(rng.uniform(-2.0, 2.0, (2, count)) * scale),
        rng.uniform(-4.0, 4.0, count),
        rng.integers(0, 8, count),
        *rng.uniform(-4.0, 4.0, (3, count)),
    ):
        pose = Pose(float(x), float(y), float(phi))
        for branch in BRANCHES:
            digests["ik"].add(inverse_kinematics, pose, branch, geometry)
        loose = (float(t1), float(t2), float(t3))
        digests["residuals"].add(constraint_residuals, pose, loose, geometry)
        digests["extensions"].add(signed_extensions, pose, loose, geometry)
        theta = inverse_kinematics(pose, BRANCHES[branch_index], geometry).angles
        digests["residuals"].add(constraint_residuals, pose, theta, geometry)
        digests["extensions"].add(signed_extensions, pose, theta, geometry)
        digests["matrices"].add(_matrices, pose, theta, geometry)
        digests["matrices"].add(_matrices, pose, loose, geometry)
        digests["singularity"].add(classify_singularity, pose, theta, geometry)
    return {name: d.hexdigest() for name, d in digests.items()}


def _dk_digests(scale, count=50, seed=21):
    geometry = ManipulatorGeometry.from_scale(scale)
    rng = np.random.default_rng(seed)
    triples = [tuple(map(float, t)) for t in rng.uniform(-math.pi, math.pi, (count, 3))]
    digests = {name: _Digest() for name in ("closed", "geometric", "bruteforce")}
    for theta in triples + SPECIAL_TRIPLES:
        digests["closed"].add(direct_kinematics, theta, geometry)
        digests["geometric"].add(lambda t: geometric_dkp(t, geometry=geometry), theta)
        digests["bruteforce"].add(lambda t: dkp_bruteforce(t, geometry=geometry), theta)
    return {name: d.hexdigest() for name, d in digests.items()}


# Captured before the rewrite; see the module docstring.
PINNED_POSES = {
    1.0: {
        "ik": "3a2a1118659ace36cd14fd2eca0f3f2ccbb3b2f8ad497783ea793551beca21b0",
        "residuals": "0f181a56de6f3e18143c80be74fbab83040e62f74d8f1fa408b93d63b42f2a74",
        "extensions": "1d238445602e918a222d5ba840bd7e21c23fba0c060201aebfe815cbe5707ea5",
        "matrices": "094c53084eb79af534753fa3477f5750201308c8faee0201b252b39c8261f191",
        "singularity": "6b415f8e05545c2813f72a2dd666e3cc8d26d2635e4a851750ba13297dfe15d9",
    },
    2.0: {
        "ik": "139b311a1750f6c52593edf239abeb41f56b465616069cadfadb44d38809a447",
        "residuals": "f7efb97ab2770eeb7b0d5ed00f2ef977eb5e3fa08c177bfb03306aff76c23ee1",
        "extensions": "6d2c7d45694c4333cf77d5994196f869e2b8a5a8bce2fe0806c4fbb2a173bad5",
        "matrices": "6bf07b67156ce7e265b25b45a96c74a63be188b594329df2e2aad66fab354890",
        "singularity": "c33e6f67ca25dd3d2e2d609d79ad739c8db3c873e4a65693fd8a5cd8e2eb9da4",
    },
}

PINNED_DK = {
    1.0: {
        "closed": "2ca781bf9008e19c49f768eb56929a67d328a2b428525930212c3fbfa67c72c2",
        "geometric": "6cf821a0463534fcebb6b7ad6bd3b9fe5b014a6c5c6666a5b37401a107bf69f5",
        "bruteforce": "96dc5cb033aa588bf174dba102561189979fb64deb1a012869911c931b46e708",
    },
    2.0: {
        "closed": "497ba0e3aeddbb6c4669340a0828338790da4c66d59bdc99c0ba7dea19098e11",
        "geometric": "9f1499ff14c82e8e63cccf4b9b8f7ddd3c2b5238f3cf5eee2b992e97b3ed1375",
        "bruteforce": "b08632a08e24133af35609de93e23758f1268f8aee99c27390fd0862ea291c05",
    },
}


@pytest.mark.parametrize("scale", sorted(PINNED_POSES))
def test_scalar_kinematics_are_pinned(scale):
    assert _pose_digests(scale) == PINNED_POSES[scale]


@pytest.mark.parametrize("scale", sorted(PINNED_DK))
def test_direct_kinematics_routes_are_pinned(scale):
    assert _dk_digests(scale) == PINNED_DK[scale]
