import numpy as np
import pytest

from thetalab import calibration as C
from thetalab import flow as Fl
from thetalab import lattice as La
from thetalab import liegroup as lg
from thetalab.reduction import FlatTwist, pullback_connection
from tests.conftest import asd_fluxes, sd_fluxes


def small_asd_field(n=3):
    geom = La.LatticeGeometry((n,) * 4, (1.0,) * 4, C.four_manifold_model())
    return La.constant_curvature_abelian(geom, asd_fluxes())


def small_pullback(n=3, ny=3, fluxes=None):
    field_x = La.constant_curvature_abelian(
        La.LatticeGeometry((n,) * 4, (1.0,) * 4, C.four_manifold_model()),
        fluxes if fluxes is not None else asd_fluxes())
    geom = La.LatticeGeometry((ny,) + (n,) * 4, (1.0,) * 5,
                              C.catalog("circle_t4"))
    return pullback_connection(field_x, geom, FlatTwist.trivial(1))


# --- residual and gradient -------------------------------------------------------

def test_residual_value_matches_theta_residual():
    field = Fl.perturb(small_asd_field(), 0.05, seed=1)
    assert abs(Fl.residual_value(field) - La.theta_residual(field)) \
        < 1e-10 * max(1.0, La.theta_residual(field))


def test_gradient_zero_at_exact_instanton():
    grad = Fl.residual_gradient(small_asd_field())
    assert Fl.gradient_norm(grad) < 1e-9


def test_gradient_matches_finite_difference():
    field = Fl.perturb(small_asd_field(), 0.08, seed=2)
    g_an = Fl.residual_gradient(field, mode="analytic")
    g_fd = Fl.residual_gradient(field, mode="finite_difference", h_fd=1e-5)
    rel = np.linalg.norm(g_an - g_fd) / np.linalg.norm(g_fd)
    assert rel < 1e-5


def test_gradient_matches_finite_difference_split_model():
    field = Fl.perturb(small_pullback(), 0.05, seed=3)
    g_an = Fl.residual_gradient(field, mode="analytic")
    g_fd = Fl.residual_gradient(field, mode="finite_difference", h_fd=1e-5)
    rel = np.linalg.norm(g_an - g_fd) / np.linalg.norm(g_fd)
    assert rel < 1e-5


def test_gradient_gauge_equivariance():
    field = Fl.perturb(small_asd_field(), 0.05, seed=4)
    g = La.random_gauge_transform(field.geometry, seed=5)
    gauged = La.apply_gauge(field, g)
    grad0 = Fl.residual_gradient(field)
    grad1 = Fl.residual_gradient(gauged)
    want = np.matmul(np.matmul(g, grad0), lg.dagger(g))
    assert np.max(np.abs(grad1 - want)) < 1e-9


# --- perturb -----------------------------------------------------------------------

def test_perturb_zero_amplitude_identity():
    field = small_asd_field()
    assert np.max(np.abs(Fl.perturb(field, 0.0, seed=1).links
                         - field.links)) == 0.0


def test_perturb_deterministic():
    field = small_asd_field()
    a = Fl.perturb(field, 0.05, seed=7)
    b = Fl.perturb(field, 0.05, seed=7)
    assert np.max(np.abs(a.links - b.links)) == 0.0
    c = Fl.perturb(field, 0.05, seed=8)
    assert np.max(np.abs(a.links - c.links)) > 0.0


def test_perturb_preserves_unitarity():
    field = Fl.perturb(small_asd_field(), 0.3, seed=9)
    assert field.check_unitarity() < 1e-12


# --- Gauss-Newton operator ----------------------------------------------------------

def test_normal_operator_symmetric_positive():
    field = Fl.perturb(small_pullback(), 0.05, seed=10)
    op = Fl._GaussNewtonOperator(field)
    rng = np.random.default_rng(0)
    basis = Fl._SU2_BASIS
    def rand_tangent():
        coef = rng.standard_normal(field.links.shape[:-2] + (3,))
        return np.tensordot(coef, basis, axes=(-1, 0))
    for _ in range(3):
        xi, eta = rand_tangent(), rand_tangent()
        bxi = op.matvec(xi).astype(complex)
        beta = op.matvec(eta).astype(complex)
        sym = abs(Fl._dot(eta, bxi) - Fl._dot(xi, beta))
        assert sym < 1e-6 * abs(Fl._dot(xi, bxi))
        assert Fl._dot(xi, bxi) >= 0.0


def test_normal_operator_matches_double_precision_passes():
    field = Fl.perturb(small_pullback(), 0.05, seed=14)
    geom = field.geometry
    op = Fl._GaussNewtonOperator(field)
    cache = Fl._leaf_cache(field)
    w = La._orthogonal_weight(geom.model)
    xi = lg.random_su(np.random.default_rng(1), field.links.shape[:-2])
    want = Fl._jacobian_transpose(
        geom, cache, np.tensordot(w, Fl._jacobian_apply(geom, cache, xi),
                                  axes=(1, 0)))
    got = op.matvec(xi)
    assert got.dtype == np.complex64
    assert np.max(np.abs(got - want)) < 1e-5 * np.max(np.abs(want))


def test_plane_blocks_reproduce_jacobian_apply():
    field = Fl.perturb(small_pullback(), 0.05, seed=14)
    geom = field.geometry
    cache = Fl._leaf_cache(field)
    xi = lg.random_su(np.random.default_rng(1), field.links.shape[:-2])
    x = Fl._su2_coords(xi)
    a = geom.spacings
    wants = Fl._su2_coords(Fl._jacobian_apply(geom, cache, xi))
    for pc, want in zip(cache, wants):
        blocks = Fl._plane_blocks(pc, 0.25 / (a[pc.mu] * a[pc.nu]))
        shifted = np.stack([La._shift2(x[axis], pc.mu + 1, pc.nu + 1, d)
                            for axis, d in pc.groups])
        got = np.einsum("igj...,gj...->i...", blocks, shifted)
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def test_jacobian_apply_matches_central_differences():
    field = Fl.perturb(small_pullback(), 0.08, seed=15)
    xi = lg.random_su(np.random.default_rng(2), field.links.shape[:-2])
    h = 1e-5

    def curvature_at(t):
        moved = La.GaugeField(field.geometry,
                              lg.mm(lg.exp(t * xi), field.links), field.twist)
        return La.curvature_vector(La.field_strength(moved))

    want = (curvature_at(h) - curvature_at(-h)) / (2 * h)
    got = Fl._jacobian_apply(field.geometry, Fl._leaf_cache(field), xi)
    assert np.max(np.abs(got - want)) < 1e-7 * np.max(np.abs(want))


def test_plane_cache_clover_matches_clover_field():
    field = Fl.perturb(small_pullback(), 0.3, seed=16)
    for pc in Fl._leaf_cache(field):
        assert np.array_equal(pc.clover, La.clover_field(field, pc.mu, pc.nu))


def test_normal_operator_gradient_consistent():
    field = Fl.perturb(small_pullback(), 0.05, seed=11)
    op = Fl._GaussNewtonOperator(field)
    assert np.max(np.abs(op.gradient - Fl.residual_gradient(field))) < 1e-12


# --- minimize ------------------------------------------------------------------------

def test_minimize_noop_at_instanton():
    field = small_asd_field()
    out, trace = Fl.minimize(field, Fl.FlowConfig(tol_residual=1e-8))
    assert trace.verdict == "converged"
    assert len(trace.residuals) == 0
    assert np.max(np.abs(out.links - field.links)) == 0.0


def test_minimize_recovers_perturbed_instanton():
    base = small_pullback()
    kappa_base = La.charges(base).kappa
    field = Fl.perturb(base, 0.02, seed=12)
    out, trace = Fl.minimize(field, Fl.FlowConfig(max_iters=400,
                                                  tol_residual=1e-8))
    assert trace.verdict == "converged"
    assert trace.residuals[-1] < 1e-8
    # monotone residual trace
    assert all(b <= a + 1e-15 for a, b in
               zip(trace.residuals, trace.residuals[1:]))
    # unitarity maintained
    assert out.check_unitarity() < 1e-12
    # recovered field sits in the same charge sector as the base instanton;
    # the coarse 3^4 lattice leaves a ~1e-5 discretization remnant
    assert abs(La.charges(out).kappa - kappa_base) < 1e-4


def test_minimize_wrong_chirality_obstructed():
    """A self-dual abelian start cannot reach residual zero; the flow reports
    a stall or budget exhaustion and the charge never moves."""
    field = small_pullback(fluxes=sd_fluxes())
    rep0 = La.charges(field)
    res0 = Fl.residual_value(field)
    out, trace = Fl.minimize(field, Fl.FlowConfig(max_iters=25,
                                                  tol_residual=1e-8))
    assert trace.verdict in ("stagnated", "max_iters", "stationary")
    final = trace.residuals[-1] if trace.residuals else res0
    assert final > 1.0
    rep1 = La.charges(out)
    assert abs(rep1.kappa - rep0.kappa) < 1e-6


def test_minimize_trace_is_consistent():
    field = Fl.perturb(small_asd_field(), 0.05, seed=13)
    out, trace = Fl.minimize(field, Fl.FlowConfig(max_iters=30,
                                                  tol_residual=1e-12))
    assert len(trace.residuals) == len(trace.steps) == len(trace.grad_norms)
    assert all(s >= 0.0 for s in trace.steps)
    assert all(g >= 0.0 for g in trace.grad_norms)


def test_minimize_builds_each_curvature_once(monkeypatch):
    """Every clover logarithm of a run comes from scoring a link
    configuration: the gradients and Gauss-Newton operators reuse the
    curvature of the accepted candidate."""
    calls = {"log": 0, "residual": 0}
    log, residual_value = lg.log, Fl.residual_value

    def counting_log(*args, **kwargs):
        calls["log"] += 1
        return log(*args, **kwargs)

    def counting_residual(*args, **kwargs):
        calls["residual"] += 1
        return residual_value(*args, **kwargs)

    monkeypatch.setattr(lg, "log", counting_log)
    monkeypatch.setattr(Fl, "residual_value", counting_residual)
    field = small_pullback(fluxes=sd_fluxes())
    Fl.minimize(field, Fl.FlowConfig(max_iters=21, tol_residual=1e-8))
    n_planes = 10
    assert calls["residual"] > 21
    assert calls["log"] == n_planes * calls["residual"]


def _count_gauss_newton_builds(monkeypatch):
    calls = []
    init = Fl._GaussNewtonOperator.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Fl._GaussNewtonOperator, "__init__", counting_init)
    return calls


def test_failed_lbfgs_search_hands_over_to_gauss_newton(monkeypatch):
    """The self-dual start stalls the L-BFGS line search at iteration 20,
    far above _GN_SWITCH; with a tolerance below _GN_SWITCH the loop goes
    on with Gauss-Newton directions."""
    builds = _count_gauss_newton_builds(monkeypatch)
    field = small_pullback(fluxes=sd_fluxes())
    _, trace = Fl.minimize(field, Fl.FlowConfig(max_iters=21,
                                                tol_residual=1e-8))
    assert trace.residuals[-1] > Fl._GN_SWITCH
    assert trace.steps[19] == 0.0
    assert len(trace.residuals) == 21 and len(builds) == 1
    assert trace.verdict == "max_iters"


def test_failed_lbfgs_search_stagnates_above_switch(monkeypatch):
    builds = _count_gauss_newton_builds(monkeypatch)
    field = small_pullback(fluxes=sd_fluxes())
    _, trace = Fl.minimize(field, Fl.FlowConfig(max_iters=25,
                                                tol_residual=1e-3))
    assert trace.verdict == "stagnated"
    assert len(trace.residuals) == 20 and trace.steps[-1] == 0.0
    assert not builds


def test_flow_config_has_no_gradient_mode_or_seed():
    for key, value in (("grad_mode", "finite_difference"), ("h_fd", 1e-5),
                       ("seed", 0)):
        with pytest.raises(TypeError):
            Fl.FlowConfig(**{key: value})


def test_laplace_preconditioner_one_site_axis():
    kernel = Fl._laplace_preconditioner((1, 4, 4, 3, 3))
    # smallest nonzero mode of the remaining axes: min(4 sin^2(pi/4),
    # 4 sin^2(pi/3)) = 2
    assert np.all(np.isfinite(kernel))
    assert np.max(kernel) <= 0.5 + 1e-12


def test_flow_config_validation():
    with pytest.raises(ValueError):
        Fl.FlowConfig(step_init=-1.0)
    with pytest.raises(ValueError):
        Fl.FlowConfig(armijo_c=1.5)
    with pytest.raises(ValueError):
        Fl.FlowConfig(tol_residual=0.0)
