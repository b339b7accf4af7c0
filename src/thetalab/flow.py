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
from collections import deque
from dataclasses import dataclass, field as dfield
from typing import Deque, Dict, List, NamedTuple, Tuple

import numpy as np

from . import liegroup as lg
from .lattice import (_LEAVES, BigradedCurvature, GaugeField,
                      LatticeGeometry, _leaf_factors, _orthogonal_weight,
                      _shift2, curvature_vector, field_strength,
                      theta_residual)

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
    clover: np.ndarray
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
        eye = lg.identity_like(fieldv.geometry.dims)
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


def _leaf_cache(fieldv: GaugeField) -> List[_PlaneCache]:
    return [_PlaneCache.build(fieldv, mu, nu)
            for mu, nu in _pair_list(fieldv.geometry.naxes)]


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


def _weighted_curvature(fieldv: GaugeField,
                        curvature: BigradedCurvature | None) -> np.ndarray:
    """(W F)_p per site, from the given curvature of fieldv if any."""
    curv = curvature or field_strength(fieldv)
    return np.tensordot(_orthogonal_weight(fieldv.geometry.model),
                        curvature_vector(curv), axes=(1, 0))


def residual_gradient(fieldv: GaugeField, mode: str = "analytic",
                      h_fd: float = 1e-5,
                      curvature: BigradedCurvature | None = None
                      ) -> np.ndarray:
    """Riemannian gradient of the residual functional, per link.

    Returns an su(2)-valued array of the same shape as the links; the
    descent update is U <- exp(-step * grad) U.  A given curvature must be
    field_strength(fieldv); it spares rebuilding the clover logarithms.
    """
    if mode == "finite_difference":
        return _gradient_fd(fieldv, h_fd)
    return _jacobian_transpose(fieldv.geometry, _leaf_cache(fieldv),
                               _weighted_curvature(fieldv, curvature))


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


def _plane_blocks(pc: _PlaneCache, scale: float) -> np.ndarray:
    """One plane's linearization as real 3x3 blocks on su(2) coordinates.

    blocks[i, g, j] is coordinate i of project_su(Dlog(C, scale * sum_t
    P_t e_j S_t)), the sum running over the factors of link group g (in the
    order of pc.groups): the response of the plane's log curvature at a
    site to direction e_j of _SU2_BASIS on the links of that group.  Dlog
    is self-adjoint under the trace form, so the transposed blocks, times
    2 cellvol, are _jacobian_transpose in the same coordinates.
    """
    cols = []
    for e in _SU2_BASIS:
        m = lg.mm(pc.p_stack, e, pc.s_stack)
        grouped = np.stack([np.sum(m[idxs], axis=0)
                            for idxs in pc.groups.values()], axis=0)
        cols.append(_su2_coords(pc.frechet(scale * grouped)))
    return np.moveaxis(np.stack(cols, axis=2), 1, 0)


class _GaussNewtonOperator:
    """Normal operator xi -> J^T W J xi of the weighted curvature map.

    Keeps each plane's linearization as real 3x3 blocks on su(2)
    coordinates in ``fast`` (see ``_plane_blocks``), in single precision,
    so that a matrix-vector product is one forward and one transposed
    contraction with them.  Used only inside the inner linear solves;
    gradients and residuals stay in double precision.
    """

    def __init__(self, fieldv: GaugeField,
                 curvature: BigradedCurvature | None = None):
        self.geometry = fieldv.geometry
        self.w32 = _orthogonal_weight(self.geometry.model).astype(np.float32)
        cache = _leaf_cache(fieldv)
        self.gradient = _jacobian_transpose(
            self.geometry, cache, _weighted_curvature(fieldv, curvature))
        a = self.geometry.spacings
        self.planes = [(pc.mu, pc.nu, list(pc.groups)) for pc in cache]
        self.fast = [np.ascontiguousarray(
            _plane_blocks(pc, 0.25 / (a[pc.mu] * a[pc.nu])), np.float32)
            for pc in cache]

    def matvec(self, xi: np.ndarray) -> np.ndarray:
        """B xi, in complex64."""
        x = _su2_coords(xi).astype(np.float32)
        df = np.stack([
            np.einsum("igj...,gj...->i...", blocks, np.stack(
                [_shift2(x[axis], mu + 1, nu + 1, d) for axis, d in specs]))
            for (mu, nu, specs), blocks in zip(self.planes, self.fast)])
        cot = np.tensordot(self.w32, df, axes=(1, 0))
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
    also serves its gradient.
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
        if gnorm < 1e-16:
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
