"""Spectral theory of the 2-form operator omega -> star(theta ^ omega).

Builds the dense matrix on the orthonormal basis {dx_i ^ dx_j : i < j}
(lexicographic), clusters its eigenvalues, and exposes projectors,
pointwise energy identities, the ellipticity rank criterion, and the
moduli-feasibility verdicts.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .calibration import CalibratedModel
from .forms import (ExteriorForm, basis_form, basis_indices, hodge_star,
                    inner, unit_metric, wedge)


class ClusteringAmbiguityError(ValueError):
    """Eigenvalue gap too small to assign multiplicities reliably."""


@dataclass(frozen=True)
class SpectralDecomposition:
    eigenvalues: Tuple[float, ...]       # sorted distinct values
    multiplicities: Tuple[int, ...]
    projectors: Tuple[np.ndarray, ...]   # one per distinct eigenvalue
    lambda_min: float
    basis: Tuple[Tuple[int, int], ...]   # lexicographic 2-form indices

    def eigenvalue_index(self, lam: float, tol: float = 1e-6) -> int | None:
        for i, ev in enumerate(self.eigenvalues):
            if abs(ev - lam) <= tol:
                return i
        return None


def form_to_vector(omega: ExteriorForm, basis: Tuple[Tuple[int, int], ...]
                   ) -> np.ndarray:
    v = np.zeros(len(basis))
    for k, idx in enumerate(basis):
        v[k] = omega[idx]
    return v


def vector_to_form(v: np.ndarray, n: int, basis: Tuple[Tuple[int, int], ...]
                   ) -> ExteriorForm:
    return ExteriorForm(n, 2, {idx: float(v[k]) for k, idx in enumerate(basis)})


def q_matrix(model: CalibratedModel) -> np.ndarray:
    """Matrix of omega -> star(theta ^ omega) on the lexicographic 2-form basis."""
    n = model.n
    if model.theta.degree != n - 4:
        raise ValueError("theta degree must be n-4")
    g = model.metric
    basis = basis_indices(n, 2)
    dim = len(basis)
    mat = np.zeros((dim, dim))
    for col, idx in enumerate(basis):
        image = hodge_star(wedge(model.theta, basis_form(n, idx)), g)
        for row, ridx in enumerate(basis):
            mat[row, col] = image[ridx]
    return mat


_CACHE: Dict[Tuple, SpectralDecomposition] = {}
_CACHE_LOCK = threading.Lock()


def _model_key(model: CalibratedModel) -> Tuple:
    return (model.n, tuple(sorted(model.theta.coeffs.items())))


def decompose(model: CalibratedModel, tau_cluster: float = 1e-8
              ) -> SpectralDecomposition:
    """Eigenvalue clusters and orthogonal projectors of the theta operator.

    tau_cluster is relative to the spectral radius; a gap below twice the
    absolute tolerance raises ClusteringAmbiguityError.
    """
    key = _model_key(model) + (tau_cluster,)
    with _CACHE_LOCK:
        hit = _CACHE.get(key)
    if hit is not None:
        return hit

    mat = q_matrix(model)
    if np.max(np.abs(mat - mat.T)) > 1e-12:
        raise ValueError("operator matrix is not symmetric")
    evals, evecs = np.linalg.eigh(mat)
    radius = max(np.max(np.abs(evals)), 1.0)
    tol = tau_cluster * radius

    clusters: list[list[int]] = [[0]]
    for i in range(1, len(evals)):
        if evals[i] - evals[clusters[-1][-1]] <= tol:
            clusters[-1].append(i)
        else:
            gap = evals[i] - evals[clusters[-1][-1]]
            if gap < 2 * tol:
                raise ClusteringAmbiguityError(
                    f"eigenvalue gap {gap:.3e} below twice the cluster "
                    f"tolerance {tol:.3e}")
            clusters.append([i])

    eigenvalues = []
    mults = []
    projectors = []
    for cl in clusters:
        vecs = evecs[:, cl]
        eigenvalues.append(float(np.mean(evals[cl])))
        mults.append(len(cl))
        projectors.append(vecs @ vecs.T)

    dec = SpectralDecomposition(
        eigenvalues=tuple(eigenvalues),
        multiplicities=tuple(mults),
        projectors=tuple(projectors),
        lambda_min=eigenvalues[0],
        basis=basis_indices(model.n, 2),
    )
    with _CACHE_LOCK:
        _CACHE[key] = dec
    return dec


def project(omega: ExteriorForm, model: CalibratedModel, lam: float,
            tol: float = 1e-6) -> ExteriorForm:
    """Orthogonal projection of a 2-form onto the lam-eigenspace."""
    dec = decompose(model)
    i = dec.eigenvalue_index(lam, tol)
    if i is None:
        return ExteriorForm(model.n, 2, {})
    v = form_to_vector(omega, dec.basis)
    return vector_to_form(dec.projectors[i] @ v, model.n, dec.basis)


def energy_identity_residual(omega: ExteriorForm, model: CalibratedModel) -> float:
    """Residual of omega^omega^theta = sum_i lam_i |pi_i omega|^2 vol.

    The minimal eigenspace (eigenvalue -1) enters with its negative sign
    through its eigenvalue, so the sum runs over every eigenspace.
    """
    g = model.metric
    top = wedge(wedge(omega, omega), model.theta)
    lhs = top[tuple(range(1, model.n + 1))] / g.volume_factor() / g.orientation
    dec = decompose(model)
    v = form_to_vector(omega, dec.basis)
    rhs = 0.0
    for lam, proj in zip(dec.eigenvalues, dec.projectors):
        pv = proj @ v
        rhs += lam * float(pv @ pv)
    return abs(lhs - rhs)


@dataclass(frozen=True)
class EllipticityResult:
    elliptic: bool
    rank: int       # multiplicity of lambda_min
    required: int   # C(n-1, 2)

    def __str__(self) -> str:
        if self.elliptic:
            return "elliptic"
        return f"non_elliptic({self.rank}, {self.required})"


def ellipticity_check(model: CalibratedModel) -> EllipticityResult:
    """Deformation complex is elliptic iff mult(lambda_min) = C(n-1, 2)."""
    dec = decompose(model)
    rank = dec.multiplicities[0]
    required = math.comb(model.n - 1, 2)
    return EllipticityResult(rank == required, rank, required)


@dataclass(frozen=True)
class Verdict:
    kind: str            # "Empty" or "Possible"
    case: str | None     # "a" | "b" | "c" | "degree" for Empty
    warning: str | None = None

    def __str__(self) -> str:
        s = f"Empty({self.case})" if self.kind == "Empty" else "Possible"
        if self.warning:
            s += f" [warning: {self.warning}]"
        return s


# Charges within this distance of zero, or of the case (b) threshold, count
# as equal to it: lattice charges carry roundoff of order 1e-17 per site
VERDICT_TOL = 1e-9


def vanishing_verdict(kappa_alpha: float, kappa_beta: float, vol_y: float,
                      eta_beta: float) -> Verdict:
    """Moduli emptiness tests from the charge/eigenvalue arithmetic.

    Cases: (a) kappa_alpha = 0 with eta_beta > -1; (b) kappa_alpha > 0,
    eta_beta > -1, and kappa_alpha below the threshold
    vol_y * kappa_beta * (-1 - 1/eta_beta); (c) kappa_alpha < 0.
    Boundary equality in (b) is reported Possible with a warning.  Every
    comparison allows VERDICT_TOL.  Non-finite charges or volume raise
    ValueError, since NaN fails every comparison.
    """
    if not all(map(math.isfinite, (kappa_alpha, kappa_beta, vol_y))):
        raise ValueError("kappa_alpha, kappa_beta and vol_y must be finite, "
                         f"got {kappa_alpha}, {kappa_beta}, {vol_y}")
    if not (-1.0 <= eta_beta < 0.0):
        raise ValueError(f"eta_beta must lie in [-1, 0), got {eta_beta}")
    if kappa_alpha < -VERDICT_TOL:
        return Verdict("Empty", "c")
    if kappa_alpha <= VERDICT_TOL:
        if eta_beta > -1.0:
            return Verdict("Empty", "a")
        return Verdict("Possible", None)
    if eta_beta > -1.0:
        threshold = vol_y * kappa_beta * (-1.0 - 1.0 / eta_beta)
        if abs(kappa_alpha - threshold) <= VERDICT_TOL:
            return Verdict("Possible", None,
                           warning="boundary equality in case (b) threshold")
        if kappa_alpha < threshold:
            return Verdict("Empty", "b")
    return Verdict("Possible", None)
