"""End-to-end acceptance criteria, each at its stated tolerance."""

import numpy as np
import pytest

from thetalab import calibration as C
from thetalab import flow as Fl
from thetalab import lattice as La
from thetalab import liegroup as lg
from thetalab import reduction as R
from thetalab import spectral as S
from thetalab import transport as T
from thetalab.forms import ExteriorForm, basis_indices, hodge_star, unit_metric


def spectrum_of(label):
    dec = S.decompose(C.catalog(label))
    return tuple(dec.eigenvalues), dec.multiplicities


def four_twists():
    return (R.FlatTwist.trivial(1),
            R.FlatTwist("CyclicZr", ks=(1,)),
            R.FlatTwist("PicardU1", angles=(0.7,)),
            R.FlatTwist("PicardU1", angles=(2.1,)))


@pytest.fixture(scope="module")
def reduced_fields(asd_field, circle_t4_geometry):
    return [R.pullback_connection(asd_field, circle_t4_geometry, tw)
            for tw in four_twists()]


def test_ac1_g2_spectrum():
    evs, mults = spectrum_of("g2")
    assert np.allclose(evs, (-1.0, 2.0), atol=1e-10)
    assert mults == (14, 7)


def test_ac2_spin7_spectrum_and_self_duality():
    evs, mults = spectrum_of("spin7")
    assert np.allclose(evs, (-1.0, 3.0), atol=1e-10)
    assert mults == (21, 7)
    theta = C.spin7_form().theta
    assert (hodge_star(theta, unit_metric(8)) - theta).norm_max() < 1e-12


def test_ac3_ellipticity_table():
    assert str(S.ellipticity_check(C.four_manifold_model())) == "elliptic"
    assert str(S.ellipticity_check(C.spin7_form())) == "elliptic"
    assert str(S.ellipticity_check(C.g2_form())) == "non_elliptic(14, 15)"


def test_ac4_energy_identity_all_models():
    rng = np.random.default_rng(4)
    for label in C.CATALOG_LABELS:
        model = C.catalog(label)
        idxs = basis_indices(model.n, 2)
        worst = 0.0
        for _ in range(1000):
            omega = ExteriorForm(model.n, 2,
                                 dict(zip(idxs, rng.standard_normal(len(idxs)))))
            worst = max(worst, S.energy_identity_residual(omega, model))
        assert worst < 1e-9, (label, worst)


def test_ac5_charge_energy_consistency(asd_field):
    rep = La.charges(asd_field)
    assert abs(rep.kappa - 2.0) < 1e-6
    # analytic constant-field oracle: two unit-flux planes on the unit T^4,
    # F_plane = 2 pi diag(i,-i), |F|^2 = -4 tr(F^2) = 32 pi^2 per plane
    oracle = 64.0 * np.pi ** 2
    assert abs(rep.ym_action - oracle) < 1e-6 * oracle
    predicted = 16.0 * 2 * np.pi ** 2 * rep.kappa_theta
    assert abs(rep.ym_action - predicted) < 1e-6 * abs(predicted)


def test_ac6_static_dimension_reduction(reduced_fields):
    for field in reduced_fields:
        assert La.theta_residual(field) < 1e-10
        curv = La.field_strength(field)
        assert curv.sector_max_norm("20") < 1e-12
        assert curv.sector_max_norm("11") < 1e-12
        rep = La.charges(field, curv)
        assert abs(rep.kappa_alpha) < 1e-8
        vol_y = field.geometry.lengths[0]
        assert rep.splitting_residual(vol_y) < 1e-8


def test_ac7_equivalence_discriminator(reduced_fields):
    untwisted, z2_twisted = reduced_fields[0], reduced_fields[1]
    verdict = T.fibre_based_equivalent(untwisted, z2_twisted)
    assert not verdict.equivalent

    base = reduced_fields[2]
    geom = base.geometry
    g = La.random_gauge_transform(geom, seed=77)
    g[0] = np.eye(2)                       # fibre-based: identity at y0
    for y in range(1, geom.dims[0]):
        g[y] = g[1]                        # constant along Y keeps sectors flat
    gauged = La.apply_gauge(base, g)
    verdict = T.fibre_based_equivalent(base, gauged)
    assert verdict.equivalent
    recon = La.apply_gauge(gauged, verdict.transform)
    assert np.max(np.abs(recon.links - base.links)) < 1e-8


def test_ac8_holonomy_stabilizes_slice(reduced_fields):
    for field in reduced_fields:
        hol = T.horizontal_holonomy(field, 0)
        res = T.stabilizer_residual(hol, T.restriction(field))
        assert res < 1e-8


def test_ac9_flow_recovery(reduced_fields):
    base = reduced_fields[2]               # U(1)-twisted pullback
    kappa_base = La.charges(base).kappa
    noisy = Fl.perturb(base, 0.05, seed=42)
    out, trace = Fl.minimize(noisy, Fl.FlowConfig(max_iters=2000,
                                                  tol_residual=1e-8))
    assert trace.verdict == "converged"
    assert trace.residuals[-1] < 1e-8
    assert all(b <= a + 1e-15 for a, b in
               zip(trace.residuals, trace.residuals[1:]))
    assert abs(La.charges(out).kappa - kappa_base) < 1e-6


def test_ac10_intrinsic_derivative_convergence():
    def gap(n_sites):
        geom = La.LatticeGeometry((n_sites,) * 5, (1.0,) * 5,
                                  C.catalog("circle_t4"))
        fluxes = np.zeros((5, 5), dtype=int)
        fluxes[0, 1], fluxes[1, 0] = 1, -1
        field = La.constant_curvature_abelian(geom, fluxes)
        path = T.LatticePath((0,) * 5, (2,) * (n_sites // 2))
        return T.intrinsic_derivative_check(field, path, 0)[2]

    ratio = gap(4) / gap(8)
    assert 3.5 < ratio < 4.5


def test_ac11_vanishing_truth_table():
    cases = (
        ((0.0, 5.0, 1.0, -0.5), ("Empty", "a")),
        ((4.0, 5.0, 1.0, -0.5), ("Empty", "b")),
        ((-1.0, 5.0, 1.0, -1.0), ("Empty", "c")),
        ((0.0, 5.0, 1.0, -1.0), ("Possible", None)),
    )
    for args, (kind, case) in cases:
        v = S.vanishing_verdict(*args)
        assert (v.kind, v.case) == (kind, case), args
