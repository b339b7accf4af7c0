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


def _dlog_by_eigenvectors(c, e):
    """Frechet derivative of the principal log at c along e, from the
    eigendecomposition c = V diag(l) V^-1."""
    lam, v = np.linalg.eig(c)
    vinv = np.linalg.inv(v)
    l1, l2 = lam[..., :, None], lam[..., None, :]
    diff = l1 - l2
    same = np.abs(diff) < 1e-12
    phi = np.where(same, 1.0 / l1,
                   (np.log(l1) - np.log(l2)) / np.where(same, 1.0, diff))
    return v @ (phi * (vinv @ e @ v)) @ vinv


def forward_oracle(field, xi):
    """Directional derivative of the log field strength along U ->
    exp(t xi) U, plane by plane in curvature_vector order.  Each leaf's
    variation is the sum of the leaf products with one factor replaced by
    its own variation: X M (direct factor) or -M X (daggered factor), X
    the shifted xi."""
    a = field.geometry.spacings
    out = []
    for mu, nu in Fl._pair_list(field.geometry.naxes):
        clover, dc = 0.0, 0.0
        for leaf in La._LEAVES:
            mats = La._leaf_factors(field, mu, nu, leaf)
            clover = clover + 0.25 * lg.mm(*mats)
            for t, (d, role, sign) in enumerate(leaf):
                x = La._shift2(xi[mu if role == 0 else nu], mu, nu, d)
                varied = list(mats)
                varied[t] = lg.mm(x, mats[t]) if sign > 0 \
                    else -lg.mm(mats[t], x)
                dc = dc + lg.mm(*varied)
        dc = 0.25 * dc / (a[mu] * a[nu])
        out.append(lg.project_su(_dlog_by_eigenvectors(clover, dc)))
    return np.stack(out, axis=0)


def walk_adjoint(field, cot):
    """2 cellvol J^T cot: each plane's leaf walk against its cotangent,
    added to the links as residual_gradient does with cot = W F."""
    grad = np.zeros_like(field.links)
    for (mu, nu), cot_p in zip(Fl._pair_list(field.geometry.naxes), cot):
        Fl._add_link_terms(grad, Fl._leaf_walk(field, mu, nu, cot_p),
                           field.geometry, mu, nu)
    return grad


def test_normal_operator_matches_double_precision_passes():
    field = Fl.perturb(small_pullback(), 0.05, seed=14)
    op = Fl._GaussNewtonOperator(field)
    w = La._orthogonal_weight(field.geometry.model)
    xi = lg.random_su(np.random.default_rng(1), field.links.shape[:-2])
    want = walk_adjoint(field, np.einsum("pq,q...->p...", w,
                                         forward_oracle(field, xi)))
    got = op.matvec(xi)
    assert got.dtype == np.complex64
    assert np.max(np.abs(got - want)) < 1e-5 * np.max(np.abs(want))


def test_walked_blocks_reproduce_forward_oracle():
    """Walking the basis cotangents gives each plane's forward blocks."""
    field = Fl.perturb(small_pullback(), 0.05, seed=14)
    geom = field.geometry
    xi = lg.random_su(np.random.default_rng(1), field.links.shape[:-2])
    x = Fl._su2_coords(xi)
    a = geom.spacings
    wants = Fl._su2_coords(forward_oracle(field, xi))
    basis = np.stack([np.broadcast_to(e, xi.shape[1:]) for e in Fl._SU2_BASIS])
    op = Fl._GaussNewtonOperator(field)
    for (mu, nu, specs), fast, want in zip(op.planes, op.fast, wants):
        terms = Fl._leaf_walk(field, mu, nu, basis)
        assert list(terms) == specs
        blocks = 0.25 / (a[mu] * a[nu]) * np.stack(
            [Fl._su2_coords(t) for t in terms.values()], axis=1)
        shifted = np.stack([La._shift2(x[axis], mu + 1, nu + 1, d)
                            for axis, d in specs])
        got = np.einsum("igj...,gj...->i...", blocks, shifted)
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))
        assert np.max(np.abs(fast - blocks)) < 1e-6 * np.max(np.abs(blocks))


def test_forward_oracle_matches_central_differences():
    field = Fl.perturb(small_pullback(), 0.08, seed=15)
    xi = lg.random_su(np.random.default_rng(2), field.links.shape[:-2])
    h = 1e-5

    def curvature_at(t):
        moved = La.GaugeField(field.geometry,
                              lg.mm(lg.exp(t * xi), field.links), field.twist)
        return La.curvature_vector(La.field_strength(moved))

    want = (curvature_at(h) - curvature_at(-h)) / (2 * h)
    got = forward_oracle(field, xi)
    assert np.max(np.abs(got - want)) < 1e-7 * np.max(np.abs(want))


def test_walk_is_adjoint_of_forward_oracle():
    """<cot, J xi> under the trace form equals <J^T cot, xi> for the
    walk's adjoint."""
    field = Fl.perturb(small_pullback(), 0.08, seed=16)
    rng = np.random.default_rng(3)
    xi = lg.random_su(rng, field.links.shape[:-2])
    cot = lg.random_su(rng, (10,) + field.geometry.dims)
    jxi = forward_oracle(field, xi)
    lhs = 2.0 * field.geometry.cell_volume * np.sum(
        lg.killing_inner_batched(cot, jxi))
    rhs = np.sum(lg.killing_inner_batched(walk_adjoint(field, cot), xi))
    assert abs(lhs - rhs) < 1e-12 * abs(lhs)


def test_clover_leaves_are_the_leaf_products():
    field = Fl.perturb(small_pullback(), 0.3, seed=16)
    for mu, nu in Fl._pair_list(field.geometry.naxes):
        leaves = list(La._clover_leaves(field, mu, nu))
        assert len(leaves) == len(La._LEAVES)
        for leaf, (mats, prod) in zip(La._LEAVES, leaves):
            want = La._leaf_factors(field, mu, nu, leaf)
            assert all(np.array_equal(m, w) for m, w in zip(mats, want))
            assert np.array_equal(prod, lg.mm(*want))


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


def _count_gauss_newton_builds(monkeypatch):
    calls = []
    init = Fl._GaussNewtonOperator.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Fl._GaussNewtonOperator, "__init__", counting_init)
    return calls


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

    builds = _count_gauss_newton_builds(monkeypatch)
    monkeypatch.setattr(lg, "log", counting_log)
    monkeypatch.setattr(Fl, "residual_value", counting_residual)
    field = Fl.perturb(small_pullback(), 0.02, seed=12)
    Fl.minimize(field, Fl.FlowConfig(max_iters=400, tol_residual=1e-8))
    n_planes = 10
    assert builds
    assert calls["log"] == n_planes * calls["residual"]


def test_failed_lbfgs_search_hands_over_to_gauss_newton(monkeypatch):
    """A trial floor above the unit step fails every line search, the first
    one far above _GN_SWITCH; with a tolerance below _GN_SWITCH the loop
    goes on with Gauss-Newton directions."""
    builds = _count_gauss_newton_builds(monkeypatch)
    monkeypatch.setattr(Fl, "_TRIAL_FLOOR", 2.0)
    field = Fl.perturb(small_pullback(), 0.05, seed=10)
    _, trace = Fl.minimize(field, Fl.FlowConfig(max_iters=5,
                                                tol_residual=1e-8))
    assert trace.residuals[-1] > Fl._GN_SWITCH
    assert trace.steps[0] == 0.0
    assert len(trace.residuals) == 5 and len(builds) == 4
    assert trace.verdict == "max_iters"


def test_failed_lbfgs_search_stagnates_above_switch(monkeypatch):
    builds = _count_gauss_newton_builds(monkeypatch)
    monkeypatch.setattr(Fl, "_TRIAL_FLOOR", 2.0)
    field = Fl.perturb(small_pullback(), 0.05, seed=10)
    _, trace = Fl.minimize(field, Fl.FlowConfig(max_iters=25,
                                                tol_residual=1e-3))
    assert trace.verdict == "stagnated"
    assert len(trace.residuals) == 1 and trace.steps[-1] == 0.0
    assert not builds


def test_exact_critical_point_is_stationary():
    """The self-dual pullback is a critical point of the residual: its
    gradient is roundoff, far below the residual's own rounding, so the
    loop stops at once and leaves the links alone."""
    field = small_pullback(fluxes=sd_fluxes())
    out, trace = Fl.minimize(field, Fl.FlowConfig(max_iters=25,
                                                  tol_residual=1e-8))
    assert trace.verdict == "stationary"
    assert len(trace.residuals) == 1 and trace.steps == [0.0]
    assert trace.residuals[0] > 1.0
    assert np.array_equal(out.links, field.links)


def test_minimize_makes_no_tensordot_call(monkeypatch):
    """The flow's weight contractions are einsums, so no BLAS call starts
    idle BLAS threads."""
    def no_tensordot(*args, **kwargs):
        raise AssertionError("np.tensordot called")

    builds = _count_gauss_newton_builds(monkeypatch)
    monkeypatch.setattr(np, "tensordot", no_tensordot)
    field = Fl.perturb(small_pullback(), 0.02, seed=12)
    _, trace = Fl.minimize(field, Fl.FlowConfig(max_iters=400,
                                                tol_residual=1e-8))
    assert trace.verdict == "converged" and builds


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
