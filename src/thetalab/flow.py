"""Residual-minimizing gradient flow on link variables.

Minimizes R(U) = sum_x cellvol <F, (I - P_{-1}) F> over the product of
su(2) fibres, where F is the clover-log field strength and P_{-1} the
projector onto the lowest eigenspace of the calibration operator.  The
analytic gradient differentiates through the matrix logarithm with exact
divided-difference Frechet calculus; a central-difference mode serves as a
slow cross-checking oracle.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field as dfield
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from . import liegroup as lg
from .lattice import (_LEAVES, GaugeField, LatticeGeometry, _leaf_factors,
                      _orthogonal_weight, _shift2, clover_log, theta_residual)

_LOG = logging.getLogger(__name__)


@dataclass(frozen=True)
class FlowConfig:
    max_iters: int = 2000
    step_init: float = 0.1
    armijo_c: float = 1e-4
    armijo_shrink: float = 0.5
    tol_residual: float = 1e-8
    grad_mode: str = "analytic"   # or "finite_difference"
    h_fd: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        if self.step_init <= 0 or not (0 < self.armijo_c < 1):
            raise ValueError("invalid flow configuration")
        if self.tol_residual <= 0:
            raise ValueError("tolerances must be positive")
        if self.grad_mode not in ("analytic", "finite_difference"):
            raise ValueError(f"unknown grad_mode {self.grad_mode}")


@dataclass
class FlowTrace:
    residuals: List[float] = dfield(default_factory=list)
    steps: List[float] = dfield(default_factory=list)
    grad_norms: List[float] = dfield(default_factory=list)
    verdict: str = "unfinished"

    def rows(self):
        return list(zip(range(len(self.residuals)), self.residuals,
                        self.steps, self.grad_norms))


def residual_value(fieldv: GaugeField) -> float:
    return theta_residual(fieldv)


def _pair_list(n: int) -> List[Tuple[int, int]]:
    return [(mu, nu) for mu in range(n) for nu in range(mu + 1, n)]


class _PlaneCache(NamedTuple):
    """Frozen per-plane linearization data of the clover-log curvature.

    Writing each clover leaf as a product of four link factors M_0..M_3,
    a left-multiplicative link variation U -> exp(xi) U perturbs factor t
    by +shift(xi) M_t (direct factor) or -M_t shift(xi) (daggered factor),
    so every factor contributes sgn * P xi_shifted S to dC with P, S the
    cached partial products.  The same (P, S) pair gives the adjoint
    contribution sgn * S k P for a cotangent k, rolled back to the link
    site.  Signs are folded into P.  specs[i] is the (link axis, shift) of
    factor i, and groups collects the factors sharing a spec.

    The clover's spectral projectors P1, P2 and divided differences give
    the Frechet derivative of the principal logarithm, see ``frechet``.
    """

    mu: int
    nu: int
    clover: np.ndarray | None
    p_stack: np.ndarray
    s_stack: np.ndarray
    specs: Tuple[Tuple[int, Tuple[int, int]], ...]
    groups: Dict[Tuple[int, Tuple[int, int]], List[int]]
    phi12: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    p1: np.ndarray
    p2: np.ndarray

    @staticmethod
    def build(fieldv: GaugeField, mu: int, nu: int) -> "_PlaneCache":
        eye = lg.identity_like(2, fieldv.geometry.dims)
        p_list, s_list, sgns, specs, leaves = [], [], [], [], []
        for leaf in _LEAVES:
            mats = _leaf_factors(fieldv, mu, nu, leaf)
            # prefix[t] = M_0..M_{t-1}, suffix[t] = M_t..M_3
            prefix = [eye, mats[0]]
            for t in (1, 2, 3):
                prefix.append(lg.mm(prefix[t], mats[t]))
            suffix = [None, None, None, mats[3], eye]
            for t in (2, 1, 0):
                suffix[t] = lg.mm(mats[t], suffix[t + 1])
            leaves.append(suffix[0])
            for t, (d, role, sign) in enumerate(leaf):
                skip = 0 if sign > 0 else 1
                p_list.append(prefix[t + skip])
                s_list.append(suffix[t + skip])
                sgns.append(float(sign))
                specs.append((mu if role == 0 else nu, d))
        clover = 0.25 * sum(leaves)
        sgn = np.asarray(sgns).reshape((len(sgns),) + (1,) * clover.ndim)
        groups: Dict[Tuple[int, Tuple[int, int]], List[int]] = {}
        for i, spec in enumerate(specs):
            groups.setdefault(spec, []).append(i)
        # Dlog(C, E) = sum_ij phi_ij P_i E P_j with phi_ii = 1/l_i and
        # phi_12 = phi_21 the divided difference of log at (l1, l2)
        l1, l2 = lg._eig2(clover)
        diff = l1 - l2
        near = np.abs(diff) < 1e-12
        safe = np.where(near, 1.0, diff)
        phi12 = np.where(near, 1.0 / l1, (np.log(l1) - np.log(l2)) / safe)
        eye2 = np.eye(2)
        p1 = (clover - l2[..., None, None] * eye2) / safe[..., None, None]
        p1 = np.where(near[..., None, None], 0.5 * eye2, p1)
        return _PlaneCache(
            mu, nu, clover, sgn * np.stack(p_list, axis=0),
            np.stack(s_list, axis=0), tuple(specs), groups,
            phi12[..., None, None], (1.0 / l1 - phi12)[..., None, None],
            (1.0 / l2 - phi12)[..., None, None], p1, eye2 - p1)

    def frechet(self, g: np.ndarray) -> np.ndarray:
        """Dlog(C, g); phi is symmetric, so this is also the adjoint K with
        tr(Dlog(C, E) g) = tr(E K)."""
        return (self.phi12 * g + self.c1 * lg.mm(self.p1, g, self.p1)
                + self.c2 * lg.mm(self.p2, g, self.p2))

    def astype(self, dtype) -> "_PlaneCache":
        """Copy of the linearization data in another precision; the clover
        itself is not needed for it and is dropped."""
        return self._replace(clover=None, **{
            name: getattr(self, name).astype(dtype)
            for name in ("p_stack", "s_stack", "phi12", "c1", "c2", "p1",
                         "p2")})


def _leaf_cache(fieldv: GaugeField) -> List[_PlaneCache]:
    return [_PlaneCache.build(fieldv, mu, nu)
            for mu, nu in _pair_list(fieldv.geometry.naxes)]


def _log_vector_from_cache(geom: LatticeGeometry,
                           cache: List[_PlaneCache]) -> np.ndarray:
    """Per-plane log field strength stack (P, *dims, 2, 2)."""
    return np.stack([clover_log(geom, pc.clover, pc.mu, pc.nu)
                     for pc in cache], axis=0)


def _jacobian_apply(geom: LatticeGeometry, cache: List[_PlaneCache],
                    xi: np.ndarray) -> np.ndarray:
    """Directional derivative of the log field strength along xi.

    Runs in the precision of the cache and of xi.
    """
    a = geom.spacings
    out = []
    for pc in cache:
        shifted = {spec: _shift2(xi[spec[0]], pc.mu, pc.nu, spec[1])
                   for spec in pc.groups}
        x = np.stack([shifted[spec] for spec in pc.specs], axis=0)
        dc = np.sum(lg.mm(pc.p_stack, x, pc.s_stack), axis=0)
        dc *= 0.25 / (a[pc.mu] * a[pc.nu])
        out.append(lg.project_su(pc.frechet(dc)))
    return np.stack(out, axis=0)


def _jacobian_transpose(geom: LatticeGeometry, cache: List[_PlaneCache],
                        cot: np.ndarray) -> np.ndarray:
    """Adjoint of the linearized log field strength against a cotangent.

    For the functional R = 2 cellvol * sum_p <F_p, cot_p>_K with a fixed
    per-plane cotangent field, returns the per-link su(2) gradient in the
    precision of the cotangent; feeding cot = (I - P_{-1}) F reproduces
    the residual gradient.
    """
    a = geom.spacings
    cellvol = geom.cell_volume
    grad = np.zeros((geom.naxes,) + cot.shape[1:], dtype=cot.dtype)
    for pc, cot_p in zip(cache, cot):
        coef = 2.0 * cellvol / (4.0 * a[pc.mu] * a[pc.nu])
        m = lg.mm(pc.s_stack, pc.frechet(cot_p)[None], pc.p_stack)
        for (axis, d), idxs in pc.groups.items():
            msum = m[idxs[0]] if len(idxs) == 1 else np.sum(m[idxs], axis=0)
            out = coef * lg.project_su(msum)
            if d[0]:
                out = np.roll(out, d[0], axis=pc.mu)
            if d[1]:
                out = np.roll(out, d[1], axis=pc.nu)
            grad[axis] += out
    return grad


def residual_gradient(fieldv: GaugeField, mode: str = "analytic",
                      h_fd: float = 1e-5) -> np.ndarray:
    """Riemannian gradient of the residual functional, per link.

    Returns an su(2)-valued array of the same shape as the links; the
    descent update is U <- exp(-step * grad) U.
    """
    if mode == "finite_difference":
        return _gradient_fd(fieldv, h_fd)
    geom = fieldv.geometry
    w = _orthogonal_weight(geom.model)
    cache = _leaf_cache(fieldv)
    vec = _log_vector_from_cache(geom, cache)
    gvec = np.tensordot(w, vec, axes=(1, 0))     # (W F)_p per site
    return _jacobian_transpose(geom, cache, gvec)


class _GaussNewtonOperator:
    """Normal operator xi -> J^T W J xi of the weighted curvature map.

    Keeps single-precision copies of the per-plane linearization data in
    ``fast``, so that a matrix-vector product is one forward and one
    adjoint pass of the shared linearization in complex64.  Used only
    inside the inner linear solves; gradients and residuals stay in double
    precision.
    """

    def __init__(self, fieldv: GaugeField):
        self.geometry = fieldv.geometry
        w64 = _orthogonal_weight(self.geometry.model)
        self.w32 = w64.astype(np.complex64)
        cache = _leaf_cache(fieldv)
        vec = _log_vector_from_cache(self.geometry, cache)
        self.gradient = _jacobian_transpose(
            self.geometry, cache, np.tensordot(w64, vec, axes=(1, 0)))
        self.fast = [pc.astype(np.complex64) for pc in cache]

    def matvec(self, xi: np.ndarray) -> np.ndarray:
        df = _jacobian_apply(self.geometry, self.fast,
                             xi.astype(np.complex64, copy=False))
        return _jacobian_transpose(self.geometry, self.fast,
                                   np.tensordot(self.w32, df, axes=(1, 0)))


def _su_basis(r: int) -> List[np.ndarray]:
    basis = []
    for i in range(r):
        for j in range(i + 1, r):
            m = np.zeros((r, r), dtype=complex)
            m[i, j] = 1.0
            m[j, i] = -1.0
            basis.append(m)
            m = np.zeros((r, r), dtype=complex)
            m[i, j] = 1j
            m[j, i] = 1j
            basis.append(m)
    for i in range(r - 1):
        m = np.zeros((r, r), dtype=complex)
        m[i, i] = 1j
        m[i + 1, i + 1] = -1j
        basis.append(m)
    return basis


def _gradient_fd(fieldv: GaugeField, h: float) -> np.ndarray:
    """Central-difference Riemannian gradient; oracle for small lattices."""
    geom = fieldv.geometry
    r = fieldv.rank
    basis = _su_basis(r)
    # Gram matrix of the basis under the scaled trace inner product
    gram = np.array([[lg.killing_inner(a, b, r) for b in basis] for a in basis])
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


def gradient_norm(grad: np.ndarray, r: int) -> float:
    return math.sqrt(abs(float(np.sum(lg.killing_inner_batched(grad, grad, r)))))


def perturb(fieldv: GaugeField, amplitude: float, seed: int) -> GaugeField:
    """Multiply every link by exp(amplitude * random su(r) element)."""
    if amplitude == 0.0:
        return fieldv.copy()
    rng = np.random.default_rng(seed)
    noise = lg.random_su(fieldv.rank, rng,
                         (fieldv.geometry.naxes,) + fieldv.geometry.dims)
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


# Residual level at which the quasi-Newton descent hands over to the
# Gauss-Newton refinement.  Below this level the energy landscape near a
# minimizer is dominated by the least-squares structure of the residual,
# where the normal-operator solve converges much faster than any
# gradient-history method.
_GN_SWITCH = 1e-4


def minimize(fieldv: GaugeField, cfg: FlowConfig = FlowConfig()
             ) -> Tuple[GaugeField, FlowTrace]:
    """Armijo-safeguarded residual minimization.

    Runs a preconditioned limited-memory quasi-Newton descent until the
    residual is small enough for the least-squares structure to dominate,
    then switches to damped Gauss-Newton steps (normal equations solved
    by conjugate gradients, built from first derivatives of the curvature
    map only).  Every accepted step must decrease the residual, so the
    trace is monotone by construction, and every step re-unitarizes the
    links.
    """
    trace = FlowTrace()
    current = fieldv.copy()
    res = residual_value(current)
    gn_eligible = cfg.grad_mode == "analytic" \
        and cfg.tol_residual < _GN_SWITCH
    stop_res = max(cfg.tol_residual, _GN_SWITCH if gn_eligible else 0.0)
    current, res, used = _descent_phase(current, res, cfg, trace, stop_res)
    if trace.verdict in ("converged", "stationary") or not gn_eligible:
        return current, trace
    if trace.verdict == "max_iters" and used >= cfg.max_iters:
        return current, trace
    if res >= cfg.tol_residual:
        current, res = _gauss_newton_phase(current, res, cfg, trace,
                                           cfg.max_iters - used)
    if res < cfg.tol_residual:
        trace.verdict = "converged"
    return current, trace


def _descent_phase(current: GaugeField, res: float, cfg: FlowConfig,
                   trace: FlowTrace, stop_res: float
                   ) -> Tuple[GaugeField, float, int]:
    """L-BFGS two-loop descent over the product su(r) algebra.

    Runs until the residual drops below ``stop_res``, the line search
    stagnates, or the iteration budget is spent; fills in the trace and a
    provisional verdict, and returns the iterate with the iteration count.
    """
    memory: List[Tuple[np.ndarray, np.ndarray, float]] = []   # (s, y, rho)
    max_memory = 12
    grad = None
    kernel = _laplace_preconditioner(current.geometry.dims)
    used = 0

    for _ in range(cfg.max_iters):
        if res < stop_res:
            trace.verdict = "converged" if res < cfg.tol_residual \
                else "handoff"
            break
        if grad is None:
            grad = residual_gradient(current, cfg.grad_mode, cfg.h_fd)
        gnorm = math.sqrt(max(_dot(grad, grad), 0.0))
        if gnorm < 1e-16:
            trace.verdict = "stationary"
            trace.residuals.append(res)
            trace.steps.append(0.0)
            trace.grad_norms.append(gnorm)
            break
        # L-BFGS two-loop recursion
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
            q *= cfg.step_init / max(gnorm, 1e-300)
        for (s, y, rho), a_i in zip(memory, reversed(alphas)):
            b_i = rho * _dot(y, q)
            q += (a_i - b_i) * s
        direction = -q
        slope = _dot(grad, direction)
        if slope >= 0:   # not a descent direction; fall back to steepest
            direction = -grad
            slope = -gnorm * gnorm
            memory.clear()
        accepted = False
        trial = 1.0
        while trial > 1e-14:
            xi = trial * direction
            cand_links = lg.unitarize(lg.mm(lg.exp(xi), current.links))
            cand = GaugeField(current.geometry, cand_links, current.twist)
            cand_res = residual_value(cand)
            if cand_res <= res + cfg.armijo_c * trial * slope:
                new_grad = residual_gradient(cand, cfg.grad_mode, cfg.h_fd)
                s_vec = xi
                y_vec = new_grad - grad
                sy = _dot(s_vec, y_vec)
                if sy > 1e-12 * math.sqrt(max(_dot(s_vec, s_vec), 0.0)) \
                        * math.sqrt(max(_dot(y_vec, y_vec), 0.0)):
                    memory.append((s_vec, y_vec, 1.0 / sy))
                    if len(memory) > max_memory:
                        memory.pop(0)
                current = cand
                res = cand_res
                grad = new_grad
                accepted = True
                break
            trial *= cfg.armijo_shrink
        used += 1
        trace.residuals.append(res)
        trace.steps.append(trial if accepted else 0.0)
        trace.grad_norms.append(gnorm)
        if not accepted:
            trace.verdict = "stagnated"
            break
    else:
        trace.verdict = "max_iters"
    if res < cfg.tol_residual and trace.verdict != "stationary":
        trace.verdict = "converged"
    return current, res, used


def _gauss_newton_phase(current: GaugeField, res: float, cfg: FlowConfig,
                        trace: FlowTrace, budget: int
                        ) -> Tuple[GaugeField, float]:
    """Damped Gauss-Newton refinement of a near-minimizing field.

    Each outer iteration solves the damped normal equations
    (J^T W J + lam) xi = -grad by preconditioned conjugate gradients with
    a growing iteration cap, takes the step through the exponential
    retraction, and accepts only under an Armijo decrease test.
    Rejections inflate the damping; the phase ends on convergence, a
    spent budget, or damping escalated past O(1), which is reported as
    stagnation.
    """
    lam = 1e-8
    outer = 0
    warm: np.ndarray | None = None
    while outer < budget:
        if res < cfg.tol_residual:
            trace.verdict = "converged"
            return current, res
        op = _GaussNewtonOperator(current)
        grad = op.gradient
        gnorm = math.sqrt(max(_dot(grad, grad), 0.0))
        if gnorm < 1e-16:
            trace.verdict = "stationary"
            trace.residuals.append(res)
            trace.steps.append(0.0)
            trace.grad_norms.append(gnorm)
            return current, res
        cap = min(150 + 150 * outer, 800)
        direction = _solve_normal_equations(op, grad, lam, cap, warm)
        slope = _dot(grad, direction)
        if slope >= 0:
            direction = -grad
            slope = -gnorm * gnorm
        accepted = False
        trial = 1.0
        while trial > 1e-12:
            xi = (trial * direction).astype(complex)
            cand_links = lg.unitarize(lg.mm(lg.exp(xi), current.links))
            cand = GaugeField(current.geometry, cand_links, current.twist)
            cand_res = residual_value(cand)
            if cand_res <= res + cfg.armijo_c * trial * slope:
                current, res = cand, cand_res
                accepted = True
                break
            trial *= cfg.armijo_shrink
        outer += 1
        trace.residuals.append(res)
        trace.steps.append(trial if accepted else 0.0)
        trace.grad_norms.append(gnorm)
        _LOG.debug("refine %d: residual %.3e cap %d step %.2g",
                   outer, res, cap, trial)
        if accepted:
            lam = 1e-8
            warm = trial * direction
        else:
            warm = None
            lam = max(lam, 1e-9) * 30.0
            if lam > 1.0:
                trace.verdict = "stagnated"
                return current, res
    trace.verdict = "max_iters"
    return current, res


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
