import math

import numpy as np
import pytest

from thetalab import calibration as C
from thetalab import spectral as S
from thetalab.forms import ExteriorForm, basis_indices, form, inner, wedge


def random_two_form(n, rng):
    idxs = basis_indices(n, 2)
    return ExteriorForm(n, 2, {i: rng.standard_normal() for i in idxs})


# --- q_matrix ----------------------------------------------------------------

def test_q_matrix_four_manifold_is_hodge_star():
    mat = S.q_matrix(C.four_manifold_model())
    eig = np.linalg.eigvalsh(mat)
    assert np.allclose(np.sort(eig), [-1, -1, -1, 1, 1, 1], atol=1e-12)
    assert np.allclose(mat @ mat, np.eye(6), atol=1e-12)


def test_q_matrix_g2_trace_zero():
    mat = S.q_matrix(C.g2_form())
    assert mat.shape == (21, 21)
    assert abs(np.trace(mat)) < 1e-12   # 14*(-1) + 7*2 = 0


def test_q_matrix_symmetric_all_catalog():
    for label in C.CATALOG_LABELS:
        mat = S.q_matrix(C.catalog(label))
        assert np.max(np.abs(mat - mat.T)) < 1e-12, label


def test_wrong_theta_degree_rejected():
    with pytest.raises(ValueError):
        C.CalibratedModel(6, ExteriorForm(6, 1, {(1,): 1.0}), label="bad6")


# --- decompose ----------------------------------------------------------------

def test_decompose_projector_algebra():
    for label in ("g2", "spin7", "kahler3", "spin7_hkxhk"):
        dec = S.decompose(C.catalog(label))
        dim = sum(dec.multiplicities)
        assert dim == len(dec.basis)
        total = np.zeros((dim, dim))
        for i, p in enumerate(dec.projectors):
            assert np.max(np.abs(p @ p - p)) < 1e-10
            assert np.max(np.abs(p - p.T)) < 1e-10
            assert abs(np.trace(p) - dec.multiplicities[i]) < 1e-8
            for q in dec.projectors[i + 1:]:
                assert np.max(np.abs(p @ q)) < 1e-10
            total += p
        assert np.max(np.abs(total - np.eye(dim))) < 1e-10
        recon = sum(lam * p for lam, p in zip(dec.eigenvalues, dec.projectors))
        assert np.max(np.abs(recon - S.q_matrix(C.catalog(label)))) < 1e-10


def test_decompose_known_tables():
    table = {
        "g2": ((-1.0, 2.0), (14, 7)),
        "spin7": ((-1.0, 3.0), (21, 7)),
        "kahler3": ((-1.0, 1.0, 2.0), (8, 6, 1)),
    }
    for label, (evs, mults) in table.items():
        dec = S.decompose(C.catalog(label))
        assert np.allclose(dec.eigenvalues, evs, atol=1e-10)
        assert dec.multiplicities == mults


def test_decompose_scaling_property():
    base = C.g2_form()
    scaled = C.CalibratedModel(7, 3.0 * base.theta, label="3phi")
    d1, d2 = S.decompose(base), S.decompose(scaled)
    assert np.allclose(np.array(d2.eigenvalues),
                       3.0 * np.array(d1.eigenvalues), atol=1e-10)
    for p, q in zip(d1.projectors, d2.projectors):
        assert np.max(np.abs(p - q)) < 1e-10


def test_decompose_clustering_ambiguity():
    # eigenvalues -0.5 and 1.0: the gap 1.5 falls inside (tol, 2*tol)
    model = C.CalibratedModel(7, 0.5 * C.g2_form().theta, label="halfphi")
    with pytest.raises(S.ClusteringAmbiguityError):
        S.decompose(model, tau_cluster=1.0)


def test_decompose_cache_respects_tau_cluster():
    model = C.CalibratedModel(7, 0.5 * C.g2_form().theta, label="halfphi")
    assert S.decompose(model).multiplicities == (14, 7)
    with pytest.raises(S.ClusteringAmbiguityError):
        S.decompose(model, tau_cluster=1.0)


# --- project -------------------------------------------------------------------

def test_project_asd_basis_r4():
    model = C.four_manifold_model()
    asd = form(4, {(1, 2): 1.0, (3, 4): -1.0})
    sd = form(4, {(1, 2): 1.0, (3, 4): 1.0})
    assert (S.project(asd, model, -1.0) - asd).norm_max() < 1e-12
    assert S.project(sd, model, -1.0).norm_max() < 1e-12


def test_project_orthogonality_and_completeness(rng):
    model = C.g2_form()
    for _ in range(10):
        om = random_two_form(7, rng)
        p2 = S.project(om, model, 2.0)
        again = S.project(p2, model, -1.0)
        assert again.norm_max() < 1e-10
        total = S.project(om, model, -1.0) + p2
        assert (total - om).norm_max() < 1e-10


def test_project_absent_eigenvalue_returns_zero(rng):
    om = random_two_form(7, rng)
    assert S.project(om, C.g2_form(), 5.0).norm_max() == 0.0


# --- energy identity -------------------------------------------------------------

def test_energy_identity_asd_r4():
    model = C.four_manifold_model()
    om = form(4, {(1, 2): 1.0, (3, 4): -1.0})
    assert S.energy_identity_residual(om, model) < 1e-12
    sq = wedge(om, om)
    assert abs(sq[(1, 2, 3, 4)] + inner(om, om)) < 1e-12


def test_energy_identity_random_g2(rng):
    model = C.g2_form()
    worst = max(S.energy_identity_residual(random_two_form(7, rng), model)
                for _ in range(200))
    assert worst < 1e-9


def test_lambda7_square_identity(rng):
    """2-forms in the +2 eigenspace satisfy omega^2 ^ phi = 2|omega|^2 vol."""
    model = C.g2_form()
    for _ in range(20):
        om = S.project(random_two_form(7, rng), model, 2.0)
        top = wedge(wedge(om, om), model.theta)
        assert abs(top[tuple(range(1, 8))] - 2.0 * inner(om, om)) < 1e-9


# --- ellipticity ---------------------------------------------------------------

def test_ellipticity_table():
    assert S.ellipticity_check(C.four_manifold_model()).elliptic
    assert S.ellipticity_check(C.spin7_form()).elliptic
    res = S.ellipticity_check(C.g2_form())
    assert not res.elliptic
    assert (res.rank, res.required) == (14, 15)
    assert str(res) == "non_elliptic(14, 15)"


# --- vanishing verdict ------------------------------------------------------------

def test_vanishing_verdict_cases():
    assert str(S.vanishing_verdict(0.0, 5.0, 1.0, -0.5)) == "Empty(a)"
    assert str(S.vanishing_verdict(-1.0, 5.0, 1.0, -1.0)) == "Empty(c)"
    assert str(S.vanishing_verdict(0.0, 5.0, 1.0, -1.0)) == "Possible"


def test_vanishing_verdict_case_b_threshold():
    # threshold = vol_y * kappa_beta * (-1 - 1/eta): eta=-0.5 -> threshold = 5
    v = S.vanishing_verdict(4.9, 5.0, 1.0, -0.5)
    assert (v.kind, v.case) == ("Empty", "b")
    assert S.vanishing_verdict(5.1, 5.0, 1.0, -0.5).kind == "Possible"
    boundary = S.vanishing_verdict(5.0, 5.0, 1.0, -0.5)
    assert boundary.kind == "Possible" and boundary.warning


def test_vanishing_verdict_tolerates_roundoff():
    # kappa_alpha of a perturbed lattice pullback is zero up to ~1e-17
    assert S.vanishing_verdict(-4.5e-18, 5.0, 1.0, -1.0).kind == "Possible"
    assert str(S.vanishing_verdict(4.5e-18, 5.0, 1.0, -0.5)) == "Empty(a)"
    assert str(S.vanishing_verdict(-2e-9, 5.0, 1.0, -1.0)) == "Empty(c)"
    for kappa_alpha in (5.0 - 1e-12, 5.0 + 1e-12):
        boundary = S.vanishing_verdict(kappa_alpha, 5.0, 1.0, -0.5)
        assert boundary.kind == "Possible" and boundary.warning
    assert str(S.vanishing_verdict(5.0 - 2e-9, 5.0, 1.0, -0.5)) == "Empty(b)"


def test_vanishing_verdict_domain():
    with pytest.raises(ValueError):
        S.vanishing_verdict(0.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        S.vanishing_verdict(0.0, 1.0, 1.0, -1.5)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_vanishing_verdict_rejects_non_finite(bad):
    for args in ((bad, 5.0, 1.0), (0.0, bad, 1.0), (4.9, 5.0, bad)):
        with pytest.raises(ValueError):
            S.vanishing_verdict(*args, -0.5)
