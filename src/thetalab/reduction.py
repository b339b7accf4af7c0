"""Dimension-reduction constructions and feasibility arithmetic.

Pullbacks of X-factor fields along the projection of a product torus,
twisted by flat representations of the Y fundamental group; verification
reports for the reduced-instanton conditions; charge bookkeeping for the
alpha/beta splitting; and the degree obstruction for unitary Kahler
reductions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import liegroup as lg
from .calibration import CalibratedModel
from .forms import ExteriorForm, wedge_all, zero_form
from .lattice import (ChargeReport, GaugeField, LatticeGeometry, charges,
                      field_strength, theta_residual)
from .spectral import Verdict, decompose, vanishing_verdict
from .transport import (horizontal_holonomy, restriction, stabilizer_residual)


class NonStabilizingTwistError(ValueError):
    """Twist generators fail to stabilize the fibre field."""


@dataclass(frozen=True)
class FlatTwist:
    """Flat Y-twist data, one generator per Y axis.

    kind "CyclicZr": integer k mod 2 per generator (center twist),
    kind "PicardU1": angle xi in [0, 2 pi) per generator (diagonal torus),
    kind "ConstantRep": explicit commuting unitary generators.
    """
    kind: str
    ks: Tuple[int, ...] = ()
    angles: Tuple[float, ...] = ()
    matrices: Tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        if self.kind not in ("CyclicZr", "PicardU1", "ConstantRep"):
            raise ValueError(f"unknown twist kind {self.kind}")
        if self.kind == "ConstantRep":
            for a, b in itertools.combinations(self.matrices, 2):
                if np.max(np.abs(a @ b - b @ a)) > 1e-12:
                    raise ValueError("constant-rep generators must commute")

    def n_generators(self) -> int:
        return {"CyclicZr": len(self.ks), "PicardU1": len(self.angles),
                "ConstantRep": len(self.matrices)}[self.kind]

    def generator(self, i: int) -> np.ndarray:
        if self.kind == "CyclicZr":
            return np.exp(2j * np.pi * self.ks[i] / 2) * np.eye(2)
        if self.kind == "PicardU1":
            xi = self.angles[i]
            return np.diag(np.exp(1j * xi * np.array([1, -1])))
        return np.asarray(self.matrices[i], dtype=complex)

    def is_central(self) -> bool:
        return self.kind == "CyclicZr"

    @staticmethod
    def trivial(n_gens: int) -> "FlatTwist":
        return FlatTwist("CyclicZr", ks=(0,) * n_gens)


def pullback_connection(field_x: GaugeField, geom: LatticeGeometry,
                        twist: FlatTwist) -> GaugeField:
    """Pull an X-factor field back to the product torus with a flat twist.

    X-direction links are copied to every Y slice and Y-direction links are
    the identity; ``twist_map`` then puts each twist generator on the
    boundary-crossing layer of its Y axis.  The result has vanishing (2,0)
    and (1,1) curvature sectors.
    """
    if geom.split is None:
        raise ValueError("target geometry must carry a product split")
    dy, dx = geom.split
    if field_x.geometry.dims != geom.dims[dy:]:
        raise ValueError("X-factor lattice does not match the product geometry")
    links = lg.identity_like((geom.naxes,) + geom.dims)
    for mu in range(dx):
        # broadcast the X link over all Y slices
        links[dy + mu][...] = field_x.links[mu][(None,) * dy]
    return twist_map(GaugeField(geom, links, field_x.twist), twist)


def _constant_map(g: np.ndarray, dims: Tuple[int, ...]) -> np.ndarray:
    out = np.zeros(dims + g.shape, dtype=complex)
    out[...] = g
    return out


def twist_map(fieldv: GaugeField, twist: FlatTwist) -> GaugeField:
    """Multiply the boundary-crossing Y links by the twist generators.

    Preserves the theta-residual and every charge; composing twists adds
    their data.
    """
    geom = fieldv.geometry
    if geom.split is None:
        raise ValueError("twist_map requires a product split")
    dy = geom.dim_y
    if twist.n_generators() != dy:
        raise ValueError("need one twist generator per Y axis")
    if not twist.is_central():
        rest = restriction(fieldv)
        devs = [stabilizer_residual(_constant_map(twist.generator(i),
                                                  rest.geometry.dims), rest)
                for i in range(dy)]
        if max(devs) >= 1e-8:
            raise NonStabilizingTwistError(
                f"twist does not stabilize the y0-slice restriction "
                f"(max residual {max(devs):.3e})")
    out = fieldv.copy()
    for j in range(dy):
        gj = twist.generator(j)
        layer = [slice(None)] * len(geom.dims)
        layer[j] = geom.dims[j] - 1
        out.links[j][tuple(layer)] = out.links[j][tuple(layer)] @ gj
    return out


@dataclass(frozen=True)
class ReductionReport:
    max_f20: float
    max_f11: float
    beta_residuals: Tuple[float, ...]   # per-Y-slice fibre instanton residual
    holonomy_residual: float            # horizontal holonomy stabilization
    kappa_alpha: float
    passed: bool
    tolerances: dict

    def to_json(self) -> dict:
        return {
            "max_F20": self.max_f20,
            "max_F11": self.max_f11,
            "beta_residuals": list(self.beta_residuals),
            "holonomy_residual": self.holonomy_residual,
            "kappa_alpha": self.kappa_alpha,
            "passed": self.passed,
            "tolerances": self.tolerances,
        }


def verify_reduction(fieldv: GaugeField, tol_sector: float = 1e-10,
                     tol_beta: float = 1e-10, tol_holonomy: float = 1e-8,
                     tol_alpha: float = 1e-8) -> ReductionReport:
    """Check the reduced-instanton conditions on a product-torus field."""
    geom = fieldv.geometry
    if geom.split is None:
        raise ValueError("verify_reduction requires a product split")
    dy = geom.dim_y
    curv = field_strength(fieldv)
    max_f20 = curv.sector_max_norm("20")
    max_f11 = curv.sector_max_norm("11")

    beta_residuals = []
    for y in itertools.product(*(range(geom.dims[i]) for i in range(dy))):
        rest = restriction(fieldv, y)
        beta_residuals.append(theta_residual(rest))

    base = restriction(fieldv)
    hol_res = 0.0
    for k in range(dy):
        hol = horizontal_holonomy(fieldv, k)
        hol_res = max(hol_res, stabilizer_residual(hol, base))

    kappa_alpha = charges(fieldv, curv).kappa_alpha
    passed = (max_f20 < tol_sector and max_f11 < tol_sector
              and max(beta_residuals) < tol_beta
              and hol_res < tol_holonomy
              and abs(kappa_alpha) < tol_alpha)
    return ReductionReport(
        max_f20=max_f20, max_f11=max_f11,
        beta_residuals=tuple(beta_residuals),
        holonomy_residual=hol_res,
        kappa_alpha=kappa_alpha,
        passed=passed,
        tolerances={"sector": tol_sector, "beta": tol_beta,
                    "holonomy": tol_holonomy, "alpha": tol_alpha},
    )


def alpha_charge(fieldv: GaugeField) -> float:
    return charges(fieldv).kappa_alpha


def kahler_degree(fluxes: Sequence[Sequence[int]],
                  omega: ExteriorForm | None = None) -> float:
    """Degree pairing of the first Chern form with omega^{m-1}.

    fluxes is the antisymmetric integer matrix of the diagonal U(1) factor
    on the 2m-torus; omega defaults to the standard Kahler form.
    """
    f = np.array(fluxes, dtype=int)
    n = f.shape[0]
    if f.shape != (n, n) or np.any(f != -f.T) or n % 2:
        raise ValueError("fluxes must be antisymmetric on an even-dim torus")
    m = n // 2
    if omega is None:
        omega = ExteriorForm(n, 2, {(2 * j - 1, 2 * j): 1.0
                                    for j in range(1, m + 1)})
    c1 = ExteriorForm(n, 2, {(mu + 1, nu + 1): float(f[mu, nu])
                             for mu in range(n) for nu in range(mu + 1, n)
                             if f[mu, nu] != 0})
    if not c1.coeffs:
        return 0.0
    top = wedge_all([c1] + [omega] * (m - 1))
    return top[tuple(range(1, n + 1))]


def eta_beta(model: CalibratedModel) -> float:
    """Lowest eigenvalue of the beta operator on the X factor."""
    return decompose(model.x_model()).lambda_min


def feasibility(model: CalibratedModel, kappa_alpha: float, kappa_beta: float,
                vol_y: float = 1.0, degree: Optional[float] = None) -> Verdict:
    """Combined emptiness verdict from charges, eta_beta, and degree data."""
    if degree is not None and abs(degree) > 1e-12:
        return Verdict("Empty", "degree")
    eb = eta_beta(model) if model.split is not None else -1.0
    eb = max(eb, -1.0)  # clamp roundoff below the admissible floor
    return vanishing_verdict(kappa_alpha, kappa_beta, vol_y, eb)


def field_feasibility(fieldv: GaugeField) -> Verdict:
    rep = charges(fieldv)
    mean_beta = (sum(rep.kappa_beta_slicewise) / len(rep.kappa_beta_slicewise)
                 if rep.kappa_beta_slicewise else rep.kappa)
    geom = fieldv.geometry
    vol_y = math.prod(geom.lengths[:geom.dim_y]) if geom.split else 1.0
    return feasibility(geom.model, rep.kappa_alpha, mean_beta, vol_y)
