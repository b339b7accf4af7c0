import math

import numpy as np
import pytest

from thetalab import calibration as C
from thetalab import lattice as La
from thetalab import liegroup as lg
from thetalab import reduction as R
from thetalab import transport as T
from thetalab.spectral import Verdict
from tests.conftest import asd_fluxes, sd_fluxes


# --- FlatTwist ---------------------------------------------------------------

def test_flat_twist_validation():
    with pytest.raises(ValueError):
        R.FlatTwist("Unknown")
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.diag([1.0 + 0j, -1.0])
    with pytest.raises(ValueError):
        R.FlatTwist("ConstantRep", matrices=(lg.exp(1j * sx), lg.exp(1j * sz)))


def test_flat_twist_generators():
    z2 = R.FlatTwist("CyclicZr", ks=(1,))
    assert np.max(np.abs(z2.generator(0) + np.eye(2))) < 1e-14
    pic = R.FlatTwist("PicardU1", angles=(0.7,))
    assert np.max(np.abs(pic.generator(0)
                         - np.diag([np.exp(0.7j), np.exp(-0.7j)]))) < 1e-14


# --- pullback ------------------------------------------------------------------

def test_pullback_theta_residual(asd_field, circle_t4_geometry):
    field = R.pullback_connection(asd_field, circle_t4_geometry,
                                  R.FlatTwist.trivial(1))
    assert La.theta_residual(field) < 1e-10
    curv = La.field_strength(field)
    assert curv.sector_max_norm("20") < 1e-12
    assert curv.sector_max_norm("11") < 1e-12


def test_pullback_restriction_is_input(asd_field, circle_t4_geometry):
    field = R.pullback_connection(asd_field, circle_t4_geometry,
                                  R.FlatTwist("CyclicZr", ks=(1,)))
    sliced = T.restriction(field)
    assert np.max(np.abs(sliced.links - asd_field.links)) == 0.0


def test_center_twist_preserves_observables(asd_field, circle_t4_geometry):
    f0 = R.pullback_connection(asd_field, circle_t4_geometry,
                               R.FlatTwist.trivial(1))
    f1 = R.pullback_connection(asd_field, circle_t4_geometry,
                               R.FlatTwist("CyclicZr", ks=(1,)))
    rep0, rep1 = La.charges(f0), La.charges(f1)
    assert abs(La.theta_residual(f0) - La.theta_residual(f1)) < 1e-10
    assert abs(rep0.kappa - rep1.kappa) < 1e-10
    assert abs(rep0.ym_action - rep1.ym_action) < 1e-10


def test_pullback_rejects_non_stabilizing_twist(circle_t4_geometry, rng):
    """A generic constant unitary does not stabilize a generic X-field."""
    geom_x = La.LatticeGeometry((4, 4, 4, 4), (1.0,) * 4,
                                C.four_manifold_model())
    base = La.trivial_field(geom_x)
    noise = lg.project_su(rng.standard_normal(base.links.shape)
                          + 1j * rng.standard_normal(base.links.shape))
    field_x = La.GaugeField(geom_x, lg.unitarize(
        lg.mm(lg.exp(0.3 * noise), base.links)))
    geom = La.LatticeGeometry((4, 4, 4, 4, 4), (1.0,) * 5,
                              C.catalog("circle_t4"))
    g = lg.exp(lg.project_su(rng.standard_normal((2, 2))
                             + 1j * rng.standard_normal((2, 2))))
    with pytest.raises(R.NonStabilizingTwistError):
        R.pullback_connection(field_x, geom,
                              R.FlatTwist("ConstantRep", matrices=(g,)))


# --- twist map --------------------------------------------------------------------

def test_twist_by_zero_is_identity(asd_field, circle_t4_geometry):
    field = R.pullback_connection(asd_field, circle_t4_geometry,
                                  R.FlatTwist.trivial(1))
    twisted = R.twist_map(field, R.FlatTwist("CyclicZr", ks=(0,)))
    assert np.max(np.abs(twisted.links - field.links)) == 0.0


def test_twist_preserves_residual_and_charges(asd_field, circle_t4_geometry):
    field = R.pullback_connection(asd_field, circle_t4_geometry,
                                  R.FlatTwist.trivial(1))
    twisted = R.twist_map(field, R.FlatTwist("PicardU1", angles=(0.9,)))
    assert abs(La.theta_residual(twisted) - La.theta_residual(field)) < 1e-10
    rep0, rep1 = La.charges(field), La.charges(twisted)
    assert abs(rep0.kappa - rep1.kappa) < 1e-10
    assert abs(rep0.kappa_alpha - rep1.kappa_alpha) < 1e-10
    h = T.horizontal_holonomy(twisted, 0)
    assert np.max(np.abs(h - np.diag([np.exp(0.9j), np.exp(-0.9j)]))) < 1e-12


def test_twist_composition(asd_field, circle_t4_geometry):
    field = R.pullback_connection(asd_field, circle_t4_geometry,
                                  R.FlatTwist.trivial(1))
    one_then_two = R.twist_map(
        R.twist_map(field, R.FlatTwist("PicardU1", angles=(0.4,))),
        R.FlatTwist("PicardU1", angles=(0.5,)))
    combined = R.twist_map(field, R.FlatTwist("PicardU1", angles=(0.9,)))
    assert np.max(np.abs(one_then_two.links - combined.links)) < 1e-12


def test_distinct_center_twists_distinguished(asd_field, circle_t4_geometry):
    f0 = R.pullback_connection(asd_field, circle_t4_geometry,
                               R.FlatTwist.trivial(1))
    f1 = R.pullback_connection(asd_field, circle_t4_geometry,
                               R.FlatTwist("CyclicZr", ks=(1,)))
    verdict = T.fibre_based_equivalent(f0, f1)
    assert not verdict.equivalent


# --- verify_reduction ----------------------------------------------------------------

def test_verify_reduction_passes_on_pullback(asd_field, circle_t4_geometry):
    field = R.pullback_connection(asd_field, circle_t4_geometry,
                                  R.FlatTwist("PicardU1", angles=(0.7,)))
    report = R.verify_reduction(field)
    assert report.passed
    assert report.max_f20 < 1e-10
    assert report.max_f11 < 1e-10
    assert max(report.beta_residuals) < 1e-10
    assert report.holonomy_residual < 1e-8


def test_verify_reduction_fails_on_sd_pullback(sd_field, circle_t4_geometry):
    field = R.pullback_connection(sd_field, circle_t4_geometry,
                                  R.FlatTwist.trivial(1))
    report = R.verify_reduction(field)
    assert not report.passed
    assert max(report.beta_residuals) > 1.0


# --- charges and degree ---------------------------------------------------------------

def test_alpha_charge_null_on_pullback(asd_field, circle_t4_geometry):
    field = R.pullback_connection(asd_field, circle_t4_geometry,
                                  R.FlatTwist.trivial(1))
    assert abs(R.alpha_charge(field)) < 1e-8


def test_kahler_degree_cases():
    assert R.kahler_degree(np.zeros((6, 6), dtype=int)) == 0.0
    f = np.zeros((6, 6), dtype=int)
    f[0, 1], f[1, 0] = 1, -1
    assert abs(R.kahler_degree(f) - 2.0) < 1e-12
    g = np.zeros((4, 4), dtype=int)
    g[0, 2], g[2, 0] = 1, -1       # omega-orthogonal plane: degree 0
    assert R.kahler_degree(g) == 0.0


def test_kahler_degree_validation():
    with pytest.raises(ValueError):
        R.kahler_degree([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        R.kahler_degree(np.zeros((3, 3), dtype=int))


# --- feasibility ------------------------------------------------------------------------

def test_feasibility_alpha_negative():
    v = R.feasibility(C.catalog("g2_t3xhk"), kappa_alpha=-1.0, kappa_beta=5.0)
    assert (v.kind, v.case) == ("Empty", "c")


def test_feasibility_alpha_null_possible():
    v = R.feasibility(C.catalog("circle_t4"), kappa_alpha=0.0, kappa_beta=2.0)
    assert v.kind == "Possible"


def test_feasibility_degree_obstruction():
    v = R.feasibility(C.catalog("circle_t4"), kappa_alpha=0.0, kappa_beta=2.0,
                      degree=2.0)
    assert (v.kind, v.case) == ("Empty", "degree")


def test_field_feasibility_on_pullback(asd_field, circle_t4_geometry):
    field = R.pullback_connection(asd_field, circle_t4_geometry,
                                  R.FlatTwist.trivial(1))
    v = R.field_feasibility(field)
    assert v.kind == "Possible"


def test_field_feasibility_ignores_roundoff_in_kappa_alpha():
    """A 1e-8 perturbation of a U(1) pullback leaves kappa_alpha zero up to
    roundoff of either sign; the verdict must not depend on that sign."""
    from thetalab.flow import perturb
    field_x = La.constant_curvature_abelian(
        La.LatticeGeometry((3,) * 4, (1.0,) * 4, C.four_manifold_model()),
        asd_fluxes())
    geom = La.LatticeGeometry((2, 2, 2, 3, 3, 3, 3), (1.0,) * 7,
                              C.catalog("g2_t3xhk"))
    base = R.pullback_connection(field_x, geom,
                                 R.FlatTwist("PicardU1", angles=(0.7,) * 3))
    for seed in range(6):
        field = perturb(base, 1e-8, seed)
        assert abs(La.charges(field).kappa_alpha) < 1e-15
        assert R.field_feasibility(field).kind == "Possible", seed
