"""Parallel transport, horizontal holonomy, and fibre-based gauge tooling.

A "fibre-based" gauge transformation is one equal to the identity on the
basepoint slice y0 (taken at the origin of the Y factor); such
transformations fix both the y0-slice restriction of a field and its
horizontal holonomies, which makes those two observables a complete
equivalence discriminator for fields whose (2,0) and (1,1) curvature
sectors vanish.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import liegroup as lg
from .lattice import (BigradedCurvature, GaugeField, LatticeGeometry,
                      apply_gauge, field_strength, shift)


@dataclass(frozen=True)
class LatticePath:
    """A lattice path: start site plus signed 1-based axis steps."""
    start: Tuple[int, ...]
    steps: Tuple[int, ...]   # +k: forward along axis k-1; -k: backward

    def __post_init__(self):
        if any(s == 0 for s in self.steps):
            raise ValueError("steps are signed 1-based axes; 0 is invalid")

    def sites(self, dims: Tuple[int, ...]):
        """Sequence of visited sites (wrapped), length len(steps)+1."""
        x = list(self.start)
        out = [tuple(x)]
        for s in self.steps:
            ax = abs(s) - 1
            x[ax] = (x[ax] + (1 if s > 0 else -1)) % dims[ax]
            out.append(tuple(x))
        return out


def path_holonomy(fieldv: GaugeField, path: LatticePath) -> np.ndarray:
    """Ordered product of links along the path, anchored at the start site."""
    dims = fieldv.geometry.dims
    U = fieldv.links
    x = list(path.start)
    hol = np.eye(2, dtype=complex)
    for s in path.steps:
        ax = abs(s) - 1
        if s > 0:
            hol = hol @ U[(ax,) + tuple(x)]
            x[ax] = (x[ax] + 1) % dims[ax]
        else:
            x[ax] = (x[ax] - 1) % dims[ax]
            hol = hol @ lg.dagger(U[(ax,) + tuple(x)])
    return hol


def horizontal_holonomy(fieldv: GaugeField, generator: int) -> np.ndarray:
    """Holonomy of the Y-generator loop at every X-site, basepoint y = 0.

    generator is the 0-based Y axis; returns an array of shape
    (*x_dims, 2, 2) mapping each X-site to the loop holonomy.
    """
    geom = fieldv.geometry
    if geom.split is None:
        raise ValueError("horizontal holonomy requires a product split")
    dy = geom.dim_y
    if not (0 <= generator < dy):
        raise ValueError(f"generator must be a Y axis in [0, {dy})")
    U = fieldv.links[generator]
    hol = lg.identity_like(geom.dims[dy:])
    y0 = [0] * dy
    for t in range(geom.dims[generator]):
        y0[generator] = t
        hol = hol @ U[tuple(y0)]
    return hol


def restriction(fieldv: GaugeField, y_site: Sequence[int] | None = None
                ) -> GaugeField:
    """Restrict to the X factor at a fixed Y site (default: the origin)."""
    geom = fieldv.geometry
    if geom.split is None:
        raise ValueError("restriction requires a product split")
    dy, dx = geom.split
    y = tuple(y_site) if y_site is not None else (0,) * dy
    x_geom = LatticeGeometry(geom.dims[dy:], geom.lengths[dy:],
                             geom.model.x_model())
    links = fieldv.links[(slice(dy, geom.naxes),) + y]
    return GaugeField(x_geom, np.ascontiguousarray(links), fieldv.twist)


def stabilizer_residual(h: np.ndarray, field_x: GaugeField) -> float:
    """max_x,mu || h(x) U_mu(x) h(x+mu)^-1 - U_mu(x) ||_max."""
    worst = 0.0
    for mu in range(field_x.geometry.naxes):
        U = field_x.links[mu]
        dev = h @ U @ lg.dagger(shift(h, mu)) - U
        worst = max(worst, float(np.max(np.abs(dev))))
    return worst


def gauge_normalize(fieldv: GaugeField) -> Tuple[GaugeField, np.ndarray]:
    """Fibre-based transformation trivializing the Y spanning-tree links.

    The tree joins every Y site to the origin by incrementing coordinates in
    axis order; after the transformation each tree link is the identity and
    the y0-slice links are unchanged.  Returns (new_field, g) with g of
    shape (*dims, 2, 2), identity on the y0 slice.
    """
    geom = fieldv.geometry
    if geom.split is None:
        raise ValueError("gauge normalization requires a product split")
    dy = geom.dim_y
    g = lg.identity_like(geom.dims)
    y_dims = geom.dims[:dy]
    for y in itertools.product(*(range(d) for d in y_dims)):
        if all(c == 0 for c in y):
            continue
        j = max(i for i, c in enumerate(y) if c != 0)
        parent = list(y)
        parent[j] -= 1
        parent = tuple(parent)
        g[y] = g[parent] @ fieldv.links[(j,) + parent]
    new_field = apply_gauge(fieldv, g)
    # tree links are products g(parent) U g(child)^-1 = I up to roundoff;
    # snap them exactly
    for y in itertools.product(*(range(d) for d in y_dims)):
        if all(c == 0 for c in y):
            continue
        j = max(i for i, c in enumerate(y) if c != 0)
        parent = list(y)
        parent[j] -= 1
        new_field.links[(j,) + tuple(parent)] = np.eye(2)
    return new_field, g


@dataclass(frozen=True)
class EquivalenceVerdict:
    equivalent: bool
    transform: Optional[np.ndarray]    # fibre-based g with apply(B, g) = A
    witness: Optional[str]             # failed condition when distinct
    deviation: float                   # measured mismatch of the verdict

    def __str__(self) -> str:
        if self.equivalent:
            return f"Equivalent(max reconstruction error {self.deviation:.3e})"
        return f"Distinct({self.witness}, deviation {self.deviation:.3e})"


def fibre_based_equivalent(field_a: GaugeField, field_b: GaugeField,
                           tol: float = 1e-8) -> EquivalenceVerdict:
    """Decide fibre-based gauge equivalence of two reduced fields.

    Both fields must have vanishing (2,0) and (1,1) curvature sectors (to
    tol); equivalence then holds iff the y0-slice restrictions and all
    Y-generator horizontal holonomies agree.
    """
    geom = field_a.geometry
    if field_b.geometry.dims != geom.dims:
        raise ValueError("fields live on different lattices")
    for f in (field_a, field_b):
        curv = field_strength(f)
        for sector in ("20", "11"):
            dev = curv.sector_max_norm(sector)
            if dev >= tol:
                raise ValueError(
                    f"hypothesis violated: ({sector[0]},{sector[1]}) curvature "
                    f"sector has max norm {dev:.3e} >= tol {tol:.1e}")
    dy = geom.dim_y
    slice_dev = float(np.max(np.abs(
        restriction(field_a).links - restriction(field_b).links)))
    if slice_dev > tol:
        return EquivalenceVerdict(False, None, "y0_slice", slice_dev)
    hol_dev = 0.0
    for k in range(dy):
        ha = horizontal_holonomy(field_a, k)
        hb = horizontal_holonomy(field_b, k)
        hol_dev = max(hol_dev, float(np.max(np.abs(ha - hb))))
    if hol_dev > tol:
        return EquivalenceVerdict(False, None, "holonomy", hol_dev)
    norm_a, g_a = gauge_normalize(field_a)
    norm_b, g_b = gauge_normalize(field_b)
    g = lg.dagger(g_a) @ g_b
    recon_dev = float(np.max(np.abs(apply_gauge(field_b, g).links
                                    - field_a.links)))
    return EquivalenceVerdict(True, g, None, recon_dev)


def intrinsic_derivative_check(fieldv: GaugeField, x_path: LatticePath,
                               y_axis: int,
                               curvature: BigradedCurvature | None = None
                               ) -> Tuple[np.ndarray, np.ndarray, float]:
    """Covariant Y-difference of an X-path transport vs its curvature integral.

    lhs = V(start)^-1 Pi(y0 + e_j) V(end) - Pi(y0) where Pi is the transport
    along x_path in the slice and V the connecting Y links; rhs accumulates
    the conjugated (1,1) clover curvature along the path.  The gap decays
    as O(a^2) on smooth fields.
    """
    geom = fieldv.geometry
    dims = geom.dims
    a = geom.spacings
    dy = geom.dim_y
    if geom.split is None or not (0 <= y_axis < dy):
        raise ValueError("y_axis must index a Y axis of a split geometry")
    if any(abs(s) - 1 < dy for s in x_path.steps):
        raise ValueError("x_path must move only along X axes")
    curv = curvature or field_strength(fieldv)
    U = fieldv.links

    sites = x_path.sites(dims)
    start, end = sites[0], sites[-1]
    up = list(start)
    up[y_axis] = (up[y_axis] + 1) % dims[y_axis]
    shifted_path = LatticePath(tuple(up), x_path.steps)

    pi0 = path_holonomy(fieldv, x_path)
    pi_up = path_holonomy(fieldv, shifted_path)
    v_start = U[(y_axis,) + start]
    v_end = U[(y_axis,) + end]
    lhs = lg.dagger(v_start) @ pi_up @ v_end - pi0

    accum = np.zeros((2, 2), dtype=complex)
    partial = np.eye(2, dtype=complex)
    x = list(start)
    for s in x_path.steps:
        ax = abs(s) - 1
        if s > 0:
            site = tuple(x)
            Fc = curv.component(y_axis, ax)[site] * (a[y_axis] * a[ax])
            accum += partial @ Fc @ np.linalg.inv(partial)
            partial = partial @ U[(ax,) + site]
            x[ax] = (x[ax] + 1) % dims[ax]
        else:
            x[ax] = (x[ax] - 1) % dims[ax]
            site = tuple(x)
            partial = partial @ lg.dagger(U[(ax,) + site])
            Fc = curv.component(y_axis, ax)[site] * (a[y_axis] * a[ax])
            accum -= partial @ Fc @ np.linalg.inv(partial)
    rhs = accum @ pi0
    gap = float(np.max(np.abs(lhs - rhs)))
    return lhs, rhs, gap
