import numpy as np
import pytest

from thetalab import calibration as C
from thetalab import lattice as La


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


def asd_fluxes():
    """Abelian flux matrix n_12 = 1, n_34 = -1 (anti-self-dual on T^4)."""
    return [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]


def sd_fluxes():
    """Abelian flux matrix n_12 = 1, n_34 = +1 (self-dual on T^4)."""
    return [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]


@pytest.fixture(scope="session")
def t4_geometry():
    return La.LatticeGeometry((6, 6, 6, 6), (1.0, 1.0, 1.0, 1.0),
                              C.four_manifold_model())


@pytest.fixture(scope="session")
def asd_field(t4_geometry):
    return La.constant_curvature_abelian(t4_geometry, asd_fluxes())


@pytest.fixture(scope="session")
def sd_field(t4_geometry):
    return La.constant_curvature_abelian(t4_geometry, sd_fluxes())


@pytest.fixture(scope="session")
def circle_t4_geometry():
    return La.LatticeGeometry((4, 6, 6, 6, 6), (1.0,) * 5,
                              C.catalog("circle_t4"))


@pytest.fixture(scope="session")
def small_t4_geometry():
    return La.LatticeGeometry((3, 3, 3, 3), (1.0,) * 4,
                              C.four_manifold_model())
