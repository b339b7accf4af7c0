"""Matrix kernel for SU(2) and su(2).

Works on plain complex numpy arrays; the last two axes are the 2x2 matrix
indices so every routine batches over arbitrary leading lattice shapes.
"""

from __future__ import annotations

import numpy as np

DELTA_LOG = 1e-3  # spectral gap from -1 required by the principal logarithm


class LogBranchError(ValueError):
    """Eigenvalue too close to -1 for the principal matrix logarithm."""


def identity_like(shape: tuple = ()) -> np.ndarray:
    out = np.zeros(shape + (2, 2), dtype=complex)
    out[...] = np.eye(2)
    return out


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conjugate(np.swapaxes(m, -1, -2))


def mm(*factors: np.ndarray) -> np.ndarray:
    """Product of (batched) 2x2 matrices, broadcast over the leading axes.

    Factors are multiplied from the right with the four entries held as
    separate arrays, so the (..., 2, 2) result is written only once; the
    result keeps the input dtype.
    """
    last = factors[-1]
    e, f = last[..., 0, 0], last[..., 0, 1]
    g, h = last[..., 1, 0], last[..., 1, 1]
    for m in reversed(factors[:-1]):
        a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
        e, f, g, h = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    out = np.empty(np.broadcast_shapes(*(m.shape for m in factors)),
                   dtype=np.result_type(*factors))
    out[..., 0, 0] = e
    out[..., 0, 1] = f
    out[..., 1, 0] = g
    out[..., 1, 1] = h
    return out


def _eig2(m: np.ndarray):
    """Eigenvalues of (batched) 2x2 matrices via trace/determinant."""
    t = m[..., 0, 0] + m[..., 1, 1]
    d = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    s = np.sqrt(t * t - 4.0 * d + 0j)
    return 0.5 * (t + s), 0.5 * (t - s)


def _apply2(m: np.ndarray, f) -> np.ndarray:
    """f(M) for batched 2x2 M as the linear pencil alpha I + beta M."""
    l1, l2 = _eig2(m)
    f1, f2 = f(l1), f(l2)
    diff = l1 - l2
    near = np.abs(diff) < 1e-14
    beta = np.where(near, 0.0, (f1 - f2) / np.where(near, 1.0, diff))
    alpha = f1 - beta * l1
    eye = np.eye(2)
    return alpha[..., None, None] * eye + beta[..., None, None] * m


def exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of (batched) 2x2 matrices, via the closed-form
    eigenvalue pencil."""
    return _apply2(np.asarray(a, dtype=complex), np.exp)


def log(g: np.ndarray, delta: float = DELTA_LOG) -> np.ndarray:
    """Principal logarithm of (batched) 2x2 unitary matrices.

    Raises LogBranchError if any eigenvalue phase lies within delta of pi.
    """
    g = np.asarray(g, dtype=complex)
    l1, l2 = _eig2(g)
    if np.any(np.pi - np.abs(np.angle(np.stack([l1, l2]))) < delta):
        raise LogBranchError(
            "unitary eigenvalue within %.1e of -1; logarithm branch "
            "ambiguous" % delta)
    out = _apply2(g, np.log)
    return 0.5 * (out - dagger(out))


def is_unitary(g: np.ndarray, tol: float = 1e-12) -> bool:
    g = np.asarray(g)
    return float(np.max(np.abs(mm(g, dagger(g)) - np.eye(2)))) <= tol


def killing_inner(a: np.ndarray, b: np.ndarray) -> float:
    """<a, b> = -4 tr(a b) for single su(2) elements."""
    return float(np.real(-4.0 * np.trace(np.asarray(a) @ np.asarray(b))))


def killing_inner_batched(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched <a, b> = -4 tr(a b) over leading axes."""
    return np.real(-4.0 * np.einsum("...ij,...ji->...", a, b))


def project_su(m: np.ndarray) -> np.ndarray:
    """Anti-Hermitian traceless part of (batched) 2x2 matrices, entrywise.

    Complex inputs keep their dtype.
    """
    m = np.asarray(m)
    if not np.iscomplexobj(m):
        m = m.astype(complex)
    im00 = m[..., 0, 0].imag
    im11 = m[..., 1, 1].imag
    t = 0.5 * (im00 + im11)
    out = np.empty(m.shape, dtype=m.dtype)
    out[..., 0, 0] = 1j * (im00 - t)
    out[..., 1, 1] = 1j * (im11 - t)
    off = 0.5 * (m[..., 0, 1] - np.conjugate(m[..., 1, 0]))
    out[..., 0, 1] = off
    out[..., 1, 0] = -np.conjugate(off)
    return out


def unitarize(m: np.ndarray) -> np.ndarray:
    """Nearest unitary to (batched) 2x2 matrices via polar decomposition.

    For invertible M with singular values s1, s2, M + |det M| M^-dag =
    (s1 + s2) V W^dag, which is the polar factor V W^dag times
    sqrt(|M|_F^2 + 2 |det M|); it needs no eigenvalue divided difference,
    which loses digits when the singular values are close but not equal.
    """
    m = np.asarray(m, dtype=complex)
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    det = a * d - b * c
    phase = det / np.abs(det)       # |det M| M^-dag = phase * adj(M)^dag
    out = np.empty_like(m)
    out[..., 0, 0] = a + phase * np.conjugate(d)
    out[..., 0, 1] = b - phase * np.conjugate(c)
    out[..., 1, 0] = c - phase * np.conjugate(b)
    out[..., 1, 1] = d + phase * np.conjugate(a)
    norm = np.sqrt(np.sum(np.abs(m) ** 2, axis=(-2, -1)) + 2.0 * np.abs(det))
    return out / norm[..., None, None]


def random_su(rng: np.random.Generator, shape: tuple = (),
              scale: float = 1.0) -> np.ndarray:
    """Random su(2) elements with independent Gaussian components."""
    m = rng.normal(size=shape + (2, 2), scale=scale) \
        + 1j * rng.normal(size=shape + (2, 2), scale=scale)
    return project_su(m)


def classify_stabilizer(gens, tol: float = 1e-8) -> str:
    """Type of the SU(2) subgroup commutant spanned by the generators.

    Returns "Central", "Abelian", or "Irreducible" according to whether the
    real commutant of the generated algebra has dimension 4, 2, or 1.
    """
    gens = [np.asarray(g, dtype=complex) for g in gens]
    if any(g.shape != (2, 2) for g in gens):
        raise ValueError("stabilizer classification takes 2x2 generators only")
    # commutant of the set equals commutant of the generated group; closing
    # the set under products up to bounded length is enough at r=2
    algebra = [np.eye(2, dtype=complex)] + gens
    for _ in range(3):
        new = []
        for a in algebra:
            for g in gens:
                new.append(a @ g)
        algebra = algebra + new
    # solve [X, g] = 0 for X in M_2(C) viewed as real 8-dim space
    rows = []
    for g in algebra:
        comm = np.kron(np.eye(2), g) - np.kron(g.T, np.eye(2))
        rows.append(np.concatenate([np.real(comm), -np.imag(comm)], axis=1))
        rows.append(np.concatenate([np.imag(comm), np.real(comm)], axis=1))
    sys = np.concatenate(rows, axis=0)
    svals = np.linalg.svd(sys, compute_uv=False)
    cut = tol * max(1.0, svals[0])
    null_dim = int(np.sum(svals < cut))
    if null_dim < len(svals) and svals[len(svals) - null_dim - 1] < 10 * cut:
        raise ValueError("commutant rank ambiguous at the given tolerance")
    # complex commutant dimension = null_dim / 2
    cdim = null_dim // 2
    if cdim >= 4:
        return "Central"
    if cdim == 2:
        return "Abelian"
    if cdim == 1:
        return "Irreducible"
    raise ValueError(f"unexpected commutant dimension {cdim}")
