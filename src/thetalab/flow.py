"""Residual-minimizing gradient flow on link variables.

Minimizes R(U) = sum_x cellvol <F, (I - P_{-1}) F> over the product of
su(2) fibres, where F is the clover-log field strength and P_{-1} the
projector onto the lowest eigenspace of the calibration operator.  The
analytic gradient differentiates through the matrix logarithm with exact
divided-difference Frechet calculus and walks each clover leaf factor by
factor (``_leaf_walk``); the same walk builds the Gauss-Newton blocks.  A
central-difference mode serves as a slow cross-checking oracle.
"""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import dataclass, field as dfield
from typing import Deque, Dict, List, Tuple

import numpy as np

from . import liegroup as lg
from .lattice import (_LEAVES, BigradedCurvature, GaugeField,
                      LatticeGeometry, _clover_leaves, _orthogonal_weight,
                      _shift2, field_strength, theta_residual,
                      weighted_curvature)

_LOG = logging.getLogger(__name__)


@dataclass(frozen=True)
class FlowConfig:
    max_iters: int = 2000
    step_init: float = 0.1
    armijo_c: float = 1e-4
    armijo_shrink: float = 0.5
    tol_residual: float = 1e-8

    def __post_init__(self):
        if self.step_init <= 0 or not (0 < self.armijo_c < 1):
            raise ValueError("invalid flow configuration")
        if self.tol_residual <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class FlowTrace:
    residuals: List[float] = dfield(default_factory=list)
    steps: List[float] = dfield(default_factory=list)
    grad_norms: List[float] = dfield(default_factory=list)
    verdict: str = "unfinished"

    def rows(self):
        return list(zip(range(len(self.residuals)), self.residuals,
                        self.steps, self.grad_norms))


def residual_value(fieldv: GaugeField,
                   curvature: BigradedCurvature | None = None) -> float:
    return theta_residual(fieldv, curvature)


def _pair_list(n: int) -> List[Tuple[int, int]]:
    return [(mu, nu) for mu in range(n) for nu in range(mu + 1, n)]


def _dlog(clover: np.ndarray):
    """E -> Dlog(C, E), the Frechet derivative of the principal logarithm.

    Dlog(C, E) = sum_ij phi_ij P_i E P_j over the clover's spectral
    projectors P1, P2, with phi_ii = 1/l_i and phi_12 = phi_21 the divided
    difference of log at (l1, l2).  phi is symmetric, so Dlog is
    self-adjoint under the trace form: tr(Dlog(C, E) G) = tr(E Dlog(C, G)).
    """
    l1, l2 = lg._eig2(clover)
    diff = l1 - l2
    near = np.abs(diff) < 1e-12
    safe = np.where(near, 1.0, diff)
    phi12 = np.where(near, 1.0 / l1, (np.log(l1) - np.log(l2)) / safe)
    eye2 = np.eye(2)
    p1 = (clover - l2[..., None, None] * eye2) / safe[..., None, None]
    p1 = np.where(near[..., None, None], 0.5 * eye2, p1)
    p2 = eye2 - p1
    c0 = phi12[..., None, None]
    c1 = (1.0 / l1 - phi12)[..., None, None]
    c2 = (1.0 / l2 - phi12)[..., None, None]
    return lambda g: c0 * g + c1 * lg.mm(p1, g, p1) + c2 * lg.mm(p2, g, p2)


def _leaf_walk(fieldv: GaugeField, mu: int, nu: int, cot: np.ndarray
               ) -> Dict[Tuple[int, Tuple[int, int]], np.ndarray]:
    """Adjoint of the (mu, nu) clover linearization against cotangent cot.

    A leaf is the product L = M_0 M_1 M_2 M_3 of its factors.  A link
    variation U -> exp(xi) U perturbs a direct factor by X M_t and a
    daggered one by -M_t X, with X the shifted xi.  Against K = Dlog(C, cot),
    tr(dL K) is then tr(X R_t) for a direct factor and -tr(X R_{t+1}) for a
    daggered one, where R_t = (M_t..M_3) K (M_0..M_{t-1}).  Every factor is
    unitary, so the walk starts at R_0 = L K and steps R_{t+1} = M_t^dag R_t
    M_t, with no partial products kept.

    Returns these signed terms summed per (link axis, shift) in first-seen
    order, at the leaf's site.  cot may carry a leading axis of its own, to
    walk several cotangents at once.
    """
    leaves = list(_clover_leaves(fieldv, mu, nu))
    k = _dlog(0.25 * sum(prod for _, prod in leaves))(cot)
    terms: Dict[Tuple[int, Tuple[int, int]], np.ndarray] = {}
    for leaf, (mats, prod) in zip(_LEAVES, leaves):
        r = lg.mm(prod, k)
        for t, ((d, role, sign), m) in enumerate(zip(leaf, mats)):
            if sign < 0:
                r = lg.mm(lg.dagger(m), r, m)
            spec = (mu if role == 0 else nu, d)
            terms[spec] = terms.get(spec, 0.0) + sign * r
            if sign > 0 and t < 3:
                r = lg.mm(lg.dagger(m), r, m)
    return terms


def _add_link_terms(grad: np.ndarray, terms, geom: LatticeGeometry,
                    mu: int, nu: int) -> None:
    """Add the (mu, nu) walk terms to the residual gradient grad: each
    term's su(2) part times 2 cellvol / (4 a_mu a_nu), at its link's site."""
    a = geom.spacings
    coef = 2.0 * geom.cell_volume / (4.0 * a[mu] * a[nu])
    for (axis, d), term in terms.items():
        grad[axis] += _shift2(coef * lg.project_su(term), mu, nu,
                              (-d[0], -d[1]))


def residual_gradient(fieldv: GaugeField, mode: str = "analytic",
                      h_fd: float = 1e-5,
                      curvature: BigradedCurvature | None = None
                      ) -> np.ndarray:
    """Riemannian gradient of the residual functional, per link.

    Returns an su(2)-valued array of the same shape as the links; the
    descent update is U <- exp(-step * grad) U.  The analytic gradient
    walks each plane's leaves against the cotangent W F_p (see _leaf_walk).
    A given curvature must be field_strength(fieldv); it spares rebuilding
    the clover logarithms.
    """
    if mode == "finite_difference":
        return _gradient_fd(fieldv, h_fd)
    geom = fieldv.geometry
    grad = np.zeros_like(fieldv.links)
    for (mu, nu), wf in zip(_pair_list(geom.naxes),
                            weighted_curvature(fieldv, curvature)):
        _add_link_terms(grad, _leaf_walk(fieldv, mu, nu, wf), geom, mu, nu)
    return grad


# Real basis of su(2): i sigma_2, i sigma_1, i sigma_3
_SU2_BASIS = (np.array([[0, 1], [-1, 0]], dtype=complex),
              np.array([[0, 1j], [1j, 0]], dtype=complex),
              np.array([[1j, 0], [0, -1j]], dtype=complex))


def _su2_coords(m: np.ndarray) -> np.ndarray:
    """Coordinates of project_su(m) in _SU2_BASIS, on a new axis 1.

    Maps a stack of shape (n, *dims, 2, 2) to shape (n, 3, *dims).  The
    basis is orthogonal with squared Frobenius norm 2, so these coordinates
    are those of the Frobenius-orthogonal projection onto su(2).
    """
    m01, m10 = m[..., 0, 1], m[..., 1, 0]
    return np.stack([0.5 * (m01.real - m10.real),
                     0.5 * (m01.imag + m10.imag),
                     0.5 * (m[..., 0, 0].imag - m[..., 1, 1].imag)], axis=1)


def _su2_matrices(x: np.ndarray) -> np.ndarray:
    """Inverse of _su2_coords on su(2), in complex64: (n, 3, *dims) ->
    (n, *dims, 2, 2)."""
    x0, x1, x2 = x[:, 0], x[:, 1], x[:, 2]
    out = np.zeros((x.shape[0],) + x.shape[2:] + (2, 2), dtype=np.complex64)
    out.real[..., 0, 1], out.imag[..., 0, 1] = x0, x1
    out.real[..., 1, 0], out.imag[..., 1, 0] = -x0, x1
    out.imag[..., 0, 0], out.imag[..., 1, 1] = x2, -x2
    return out


class _GaussNewtonOperator:
    """Normal operator xi -> J^T W J xi of the weighted curvature map.

    Each plane is walked once (see _leaf_walk) against four cotangents:
    W F_p, which gives the plane's share of ``gradient``, and the basis
    directions e_i of _SU2_BASIS.  Dlog is self-adjoint, so walking e_i
    gives row i of the plane's forward linearization: fast[p][i, g, j] is
    coordinate i of the plane's log curvature response at a site to
    direction e_j on the links of group g, the g-th spec in planes[p].
    These real 3x3 blocks are kept in single precision, so that a
    matrix-vector product is one forward and one transposed contraction
    with them.  Used only inside the inner linear solves; gradients and
    residuals stay in double precision.
    """

    def __init__(self, fieldv: GaugeField,
                 curvature: BigradedCurvature | None = None):
        geom = self.geometry = fieldv.geometry
        self.w32 = _orthogonal_weight(geom.model).astype(np.float32)
        self.gradient = np.zeros_like(fieldv.links)
        self.planes, self.fast = [], []
        for (mu, nu), wf in zip(_pair_list(geom.naxes),
                                weighted_curvature(fieldv, curvature)):
            terms = _leaf_walk(fieldv, mu, nu, np.stack(
                [wf] + [np.broadcast_to(e, wf.shape) for e in _SU2_BASIS]))
            _add_link_terms(self.gradient, {s: t[0] for s, t in terms.items()},
                            geom, mu, nu)
            self.planes.append((mu, nu, list(terms)))
            scale = 0.25 / (geom.spacings[mu] * geom.spacings[nu])
            self.fast.append(np.ascontiguousarray(scale * np.stack(
                [_su2_coords(t[1:]) for t in terms.values()], axis=1),
                np.float32))

    def matvec(self, xi: np.ndarray) -> np.ndarray:
        """B xi, in complex64."""
        x = _su2_coords(xi).astype(np.float32)
        df = np.stack([
            np.einsum("igj...,gj...->i...", blocks, np.stack(
                [_shift2(x[axis], mu + 1, nu + 1, d) for axis, d in specs]))
            for (mu, nu, specs), blocks in zip(self.planes, self.fast)])
        cot = np.einsum("pq,q...->p...", self.w32, df)
        grad = np.zeros_like(x)
        for (mu, nu, specs), blocks, cot_p in zip(self.planes, self.fast,
                                                  cot):
            z = np.einsum("igj...,i...->gj...", blocks, cot_p)
            for (axis, d), z_g in zip(specs, z):
                grad[axis] += _shift2(z_g, mu + 1, nu + 1, (-d[0], -d[1]))
        grad *= 2.0 * self.geometry.cell_volume
        return _su2_matrices(grad)


def _gradient_fd(fieldv: GaugeField, h: float) -> np.ndarray:
    """Central-difference Riemannian gradient; oracle for small lattices."""
    geom = fieldv.geometry
    basis = _SU2_BASIS
    # Gram matrix of the basis under the scaled trace inner product
    gram = np.array([[lg.killing_inner(a, b) for b in basis] for a in basis])
    gram_inv = np.linalg.inv(gram)
    grad = np.zeros_like(fieldv.links)
    it = np.ndindex((geom.naxes,) + geom.dims)
    for idx in it:
        derivs = []
        for e in basis:
            bumped = fieldv.copy()
            bumped.links[idx] = lg.exp(h * e) @ bumped.links[idx]
            rp = theta_residual(bumped)
            bumped = fieldv.copy()
            bumped.links[idx] = lg.exp(-h * e) @ bumped.links[idx]
            rm = theta_residual(bumped)
            derivs.append((rp - rm) / (2 * h))
        coeffs = gram_inv @ np.array(derivs)
        grad[idx] = sum(c * e for c, e in zip(coeffs, basis))
    return grad


def gradient_norm(grad: np.ndarray) -> float:
    return math.sqrt(abs(float(np.sum(lg.killing_inner_batched(grad, grad)))))


def perturb(fieldv: GaugeField, amplitude: float, seed: int) -> GaugeField:
    """Multiply every link by exp(amplitude * random su(2) element)."""
    if amplitude == 0.0:
        return fieldv.copy()
    rng = np.random.default_rng(seed)
    noise = lg.random_su(rng, (fieldv.geometry.naxes,) + fieldv.geometry.dims)
    new_links = lg.exp(amplitude * noise) @ fieldv.links
    return GaugeField(fieldv.geometry, new_links, fieldv.twist)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.real(np.sum(np.conjugate(a) * b)))


def _laplace_preconditioner(dims: Tuple[int, ...]) -> np.ndarray:
    """Momentum-space kernel 1/(lattice Laplacian + smallest nonzero mode)."""
    acc = np.zeros(dims)
    for ax, n_ax in enumerate(dims):
        k = np.arange(n_ax)
        s2 = 4.0 * np.sin(np.pi * k / n_ax) ** 2
        shape = [1] * len(dims)
        shape[ax] = n_ax
        acc = acc + s2.reshape(shape)
    # a one-site axis has no nonzero mode (4 sin^2(pi) rounds to 6e-32, not
    # 0), so only longer axes set the shift; a single site gets 1
    eps = min((4.0 * np.sin(np.pi / n_ax) ** 2 for n_ax in dims if n_ax > 1),
              default=1.0)
    return 1.0 / (acc + eps)


def _precondition(grad: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Apply the inverse-Laplacian smoother to each link-direction field."""
    axes = tuple(range(1, grad.ndim - 2))
    hat = np.fft.fftn(grad, axes=axes)
    hat *= kernel[None, ..., None, None]
    return np.fft.ifftn(hat, axes=axes)


# Residual level below which the loop takes Gauss-Newton directions.  Near a
# minimizer the energy landscape is dominated by the least-squares structure
# of the residual, where the normal-operator solve converges much faster
# than any gradient-history method.
_GN_SWITCH = 1e-4

# Smallest Armijo trial step before a line search counts as failed
_TRIAL_FLOOR = 1e-14


def _lbfgs_direction(grad: np.ndarray, memory, kernel: np.ndarray,
                     first_scale: float) -> np.ndarray:
    """L-BFGS two-loop recursion over the product su(2) algebra.

    memory holds (s, y, 1/<s, y>) triples, oldest first; the inverse-Laplacian
    smoother is the initial inverse Hessian, scaled by <s, y>/<y, K y> of
    the newest pair, or by first_scale without history.
    """
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(memory):
        a_i = rho * _dot(s, q)
        alphas.append(a_i)
        q -= a_i * y
    q = _precondition(q, kernel)
    if memory:
        s, y, _ = memory[-1]
        py = _precondition(y, kernel)
        q *= _dot(s, y) / max(_dot(y, py), 1e-300)
    else:
        q *= first_scale
    for (s, y, rho), a_i in zip(memory, reversed(alphas)):
        b_i = rho * _dot(y, q)
        q += (a_i - b_i) * s
    return -q


def minimize(fieldv: GaugeField, cfg: FlowConfig = FlowConfig()
             ) -> Tuple[GaugeField, FlowTrace]:
    """Armijo-safeguarded residual minimization.

    Each iteration picks a direction, then backtracks along it over the
    exponential retraction (re-unitarizing the links) until the Armijo
    test passes.  The direction is a preconditioned L-BFGS step while the
    residual is at least _GN_SWITCH, and a damped Gauss-Newton step
    (normal equations solved by conjugate gradients) once it is below, or
    once an L-BFGS line search fails while the tolerance is below
    _GN_SWITCH.  Every accepted step decreases the residual, so the trace
    is monotone.  An accepted candidate's curvature, built to score it,
    also serves its gradient.  A gradient with |g|^2 <= eps * residual is
    roundoff at a critical point, and ends the run as "stationary".
    """
    trace = FlowTrace()
    current = fieldv.copy()
    curv = field_strength(current)
    res = residual_value(current, curv)
    kernel = _laplace_preconditioner(current.geometry.dims)
    memory: Deque[Tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=12)
    last_step = None        # (s, gradient before s) of the last L-BFGS step
    newton = False
    lam, warm, outer = 1e-8, None, 0

    for _ in range(cfg.max_iters):
        if res < cfg.tol_residual:
            trace.verdict = "converged"
            break
        newton = newton or res < _GN_SWITCH
        if newton:
            memory.clear()
            last_step = None
            op = _GaussNewtonOperator(current, curv)
            grad = op.gradient
        else:
            grad = residual_gradient(current, curvature=curv)
            if last_step is not None:
                s_vec, y_vec = last_step[0], grad - last_step[1]
                sy = _dot(s_vec, y_vec)
                if sy > 1e-12 * math.sqrt(max(_dot(s_vec, s_vec), 0.0)) \
                        * math.sqrt(max(_dot(y_vec, y_vec), 0.0)):
                    memory.append((s_vec, y_vec, 1.0 / sy))
        gnorm = math.sqrt(max(_dot(grad, grad), 0.0))
        if gnorm * gnorm <= np.finfo(float).eps * res:
            trace.verdict = "stationary"
            trace.residuals.append(res)
            trace.steps.append(0.0)
            trace.grad_norms.append(gnorm)
            break
        if newton:
            cap = min(150 + 150 * outer, 800)
            direction = _solve_normal_equations(op, grad, lam, cap, warm)
        else:
            direction = _lbfgs_direction(grad, memory, kernel,
                                         cfg.step_init / max(gnorm, 1e-300))
        slope = _dot(grad, direction)
        if slope >= 0:   # not a descent direction; fall back to steepest
            direction = -grad
            slope = -gnorm * gnorm
            memory.clear()
        trial = 1.0
        while trial > _TRIAL_FLOOR:
            xi = trial * direction
            cand_links = lg.unitarize(lg.mm(lg.exp(xi), current.links))
            cand = GaugeField(current.geometry, cand_links, current.twist)
            cand_curv = field_strength(cand)
            cand_res = residual_value(cand, cand_curv)
            if cand_res <= res + cfg.armijo_c * trial * slope:
                current, curv, res = cand, cand_curv, cand_res
                break
            trial *= cfg.armijo_shrink
        accepted = trial > _TRIAL_FLOOR
        trace.residuals.append(res)
        trace.steps.append(trial if accepted else 0.0)
        trace.grad_norms.append(gnorm)
        if newton:
            outer += 1
            _LOG.debug("refine %d: residual %.3e cap %d step %.2g",
                       outer, res, cap, trial)
            if accepted:
                lam, warm = 1e-8, xi
            else:
                lam, warm = max(lam, 1e-9) * 30.0, None
            if lam > 1.0:
                trace.verdict = "stagnated"
                break
        elif accepted:
            last_step = (xi, grad)
        elif cfg.tol_residual < _GN_SWITCH:
            newton = True
        else:
            trace.verdict = "stagnated"
            break
    else:
        trace.verdict = "converged" if res < cfg.tol_residual else "max_iters"
    return current, trace


def _solve_normal_equations(op: _GaussNewtonOperator, grad: np.ndarray,
                            lam: float, cap: int,
                            x0: np.ndarray | None = None) -> np.ndarray:
    """Conjugate-gradient solve of (J^T W J + lam) x = -grad.

    Warm-starting from the previous outer direction carries over the
    slowly converging low-curvature components of the solution.  The
    operator runs in single precision; the inner solve only needs a few
    digits because the outer Armijo test guards the step.
    """
    if x0 is None:
        x = np.zeros_like(grad)
        r = -grad.copy()
    else:
        x = x0.copy()
        r = -grad - op.matvec(x0).astype(complex) - lam * x0
    p = r.copy()
    rz = _dot(r, r)
    r0 = max(math.sqrt(max(rz, 0.0)),
             math.sqrt(max(_dot(grad, grad), 0.0)))
    for _ in range(cap):
        bp = op.matvec(p).astype(complex) + lam * p
        pbp = _dot(p, bp)
        if pbp <= 0.0:
            break
        alpha = rz / pbp
        x += alpha * p
        r -= alpha * bp
        rz_new = _dot(r, r)
        if math.sqrt(max(rz_new, 0.0)) < 1e-6 * r0:
            break
        p = r + (rz_new / rz) * p
        rz = rz_new
    return x
