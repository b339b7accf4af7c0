"""Lattice gauge fields on product tori.

Links are SU(2) and stored in one complex array of shape (naxes, *dims,
2, 2); all heavy loops are vectorized over sites with np.roll shifts.
Nontrivial bundles are realized by absorbing abelian transition factors
directly into the link variables, so plaquettes and holonomies never need
explicit boundary insertions; the flux data is kept alongside as metadata.
"""

from __future__ import annotations

import itertools
import json
import math
import tokenize
import zipfile
from dataclasses import dataclass, field as dfield
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import liegroup as lg
from .calibration import CalibratedModel, catalog
from .forms import basis_indices, merge_sign
from .spectral import decompose


@dataclass(frozen=True)
class LatticeGeometry:
    dims: Tuple[int, ...]      # sites per axis
    lengths: Tuple[float, ...]
    model: CalibratedModel
    split: Optional[Tuple[int, int]] = None  # (dimY axes, dimX axes)

    def __post_init__(self):
        if len(self.dims) != self.model.n or len(self.lengths) != self.model.n:
            raise ValueError("dims/lengths must match the model dimension")
        if any(d < 1 for d in self.dims):
            raise ValueError("site counts must be >= 1")
        if any(l <= 0 for l in self.lengths):
            raise ValueError("lengths must be positive")
        if self.split is None and self.model.split is not None:
            object.__setattr__(self, "split", self.model.split)
        if self.split is not None and sum(self.split) != self.model.n:
            raise ValueError("split must sum to the total dimension")

    @property
    def naxes(self) -> int:
        return self.model.n

    @property
    def spacings(self) -> Tuple[float, ...]:
        return tuple(l / d for l, d in zip(self.lengths, self.dims))

    @property
    def cell_volume(self) -> float:
        return math.prod(self.spacings)

    @property
    def dim_y(self) -> int:
        return self.split[0] if self.split else 0

    def sector(self, mu: int, nu: int) -> str:
        """Bigrading of the (mu, nu) plane: '20', '11', or '02' (0-based axes)."""
        dy = self.dim_y
        in_y = (mu < dy) + (nu < dy)
        return {2: "20", 1: "11", 0: "02"}[in_y]


@dataclass(frozen=True)
class TransitionTwist:
    """Abelian bundle data: the integer fluxes of the diagonal U(1)."""
    fluxes: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.fluxes)
        f = np.array(self.fluxes)
        if f.shape != (n, n) or np.any(f != -f.T):
            raise ValueError("fluxes must be an antisymmetric integer matrix")

    @staticmethod
    def zero(n: int) -> "TransitionTwist":
        return TransitionTwist(tuple(tuple(0 for _ in range(n))
                                     for _ in range(n)))


@dataclass
class GaugeField:
    geometry: LatticeGeometry
    links: np.ndarray                      # (naxes, *dims, 2, 2) complex
    twist: Optional[TransitionTwist] = None

    def __post_init__(self):
        expected = (self.geometry.naxes,) + self.geometry.dims
        if self.links.shape[-2:] != (2, 2):
            raise ValueError(f"links shape {self.links.shape} is not SU(2): "
                             "lattice fields carry 2x2 links only")
        if self.links.shape[:-2] != expected:
            raise ValueError(f"links shape {self.links.shape} does not match "
                             f"geometry {expected}")

    def copy(self) -> "GaugeField":
        return GaugeField(self.geometry, self.links.copy(), self.twist)

    def check_unitarity(self) -> float:
        dev = np.abs(lg.mm(self.links, lg.dagger(self.links)) - np.eye(2))
        return float(np.max(dev))


def trivial_field(geom: LatticeGeometry) -> GaugeField:
    links = lg.identity_like((geom.naxes,) + geom.dims)
    return GaugeField(geom, links, TransitionTwist.zero(geom.naxes))


def shift(arr: np.ndarray, mu: int, steps: int = 1) -> np.ndarray:
    """Value at x + steps * e_mu, for site arrays of shape (*dims, 2, 2)."""
    return np.roll(arr, -steps, axis=mu)


def _coordinate_grid(dims: Tuple[int, ...], axis: int) -> np.ndarray:
    """Integer coordinate x_axis broadcast over the site array."""
    shape = [1] * len(dims)
    shape[axis] = dims[axis]
    return np.arange(dims[axis]).reshape(shape) * np.ones(dims)


def constant_curvature_abelian(geom: LatticeGeometry,
                               fluxes: Sequence[Sequence[int]]) -> GaugeField:
    """Abelian background with exactly constant field strength.

    For each flux n in the (mu, nu) plane the nu-links acquire the phase
    exp(2 pi i n x_mu / (N_mu N_nu) q) and the mu-links on the last mu-slice
    absorb the transition factor exp(-2 pi i n x_nu / N_nu q), where
    q = diag(1, -1) embeds U(1) in SU(2).  Every (mu, nu) plaquette then
    equals exp(2 pi i n / (N_mu N_nu) q) at every site.
    """
    f = np.array(fluxes, dtype=int)
    n = geom.naxes
    if f.shape != (n, n) or np.any(f != -f.T):
        raise ValueError("fluxes must be an antisymmetric n x n integer matrix")
    twist = TransitionTwist(tuple(map(tuple, f.tolist())))
    q = np.array((1, -1))
    dims = geom.dims
    # accumulate diagonal phases per link direction
    phases = np.zeros((n,) + dims)  # angle multiplying q on each link
    for mu in range(n):
        for nu in range(n):
            if mu >= nu or f[mu, nu] == 0:
                continue
            nflux = f[mu, nu]
            max_phase = 2 * np.pi * abs(nflux) / (dims[mu] * dims[nu])
            if max_phase >= np.pi - lg.DELTA_LOG:
                raise lg.LogBranchError(
                    f"flux {nflux} in plane ({mu},{nu}) puts plaquette phases "
                    "outside the principal-log branch")
            xmu = _coordinate_grid(dims, mu)
            xnu = _coordinate_grid(dims, nu)
            phases[nu] += 2 * np.pi * nflux * xmu / (dims[mu] * dims[nu])
            phases[mu] += np.where(xmu == dims[mu] - 1,
                                   -2 * np.pi * nflux * xnu / dims[nu], 0.0)
    diag = np.exp(1j * phases[..., None] * q)
    links = np.zeros((n,) + dims + (2, 2), dtype=complex)
    links[..., 0, 0] = diag[..., 0]
    links[..., 1, 1] = diag[..., 1]
    return GaugeField(geom, links, twist)


def plaquette(fieldv: GaugeField, site: Sequence[int], mu: int, nu: int
              ) -> np.ndarray:
    """Ordered product of the four links around the unit (mu, nu) square."""
    U = fieldv.links
    dims = fieldv.geometry.dims
    x = tuple(site)

    def at(direction, pos):
        return U[(direction,) + tuple(p % d for p, d in zip(pos, dims))]

    xp_mu = list(x); xp_mu[mu] += 1
    xp_nu = list(x); xp_nu[nu] += 1
    return at(mu, x) @ at(nu, xp_mu) @ lg.dagger(at(mu, xp_nu)) \
        @ lg.dagger(at(nu, x))


# Clover leaves in the (mu, nu) plane, each the ordered product of four link
# factors (shift, role, sign): the link sits at x + shift[0] e_mu +
# shift[1] e_nu, role 0 is the mu link and 1 the nu link, and sign -1 means
# the link enters daggered.  Every leaf has the orientation of the
# plaquette U_mu(x) U_nu(x+mu) U_mu(x+nu)^dag U_nu(x)^dag.
_LEAVES = (
    (((0, 0), 0, +1), ((1, 0), 1, +1), ((0, 1), 0, -1), ((0, 0), 1, -1)),
    (((0, 0), 1, +1), ((-1, 1), 0, -1), ((-1, 0), 1, -1), ((-1, 0), 0, +1)),
    (((-1, 0), 0, -1), ((-1, -1), 1, -1), ((-1, -1), 0, +1), ((0, -1), 1, +1)),
    (((0, -1), 1, -1), ((0, -1), 0, +1), ((1, -1), 1, +1), ((0, 0), 0, -1)),
)


def _shift2(arr: np.ndarray, mu: int, nu: int, d: Tuple[int, int]) -> np.ndarray:
    """Value at x + d[0] e_mu + d[1] e_nu, for site arrays."""
    out = arr
    if d[0]:
        out = np.roll(out, -d[0], axis=mu)
    if d[1]:
        out = np.roll(out, -d[1], axis=nu)
    return out


def _leaf_factors(fieldv: GaugeField, mu: int, nu: int, leaf) -> list:
    """The four link factors of one clover leaf, shifted and daggered."""
    out = []
    for d, role, sign in leaf:
        link = _shift2(fieldv.links[mu if role == 0 else nu], mu, nu, d)
        out.append(link if sign > 0 else lg.dagger(link))
    return out


def clover_field(fieldv: GaugeField, mu: int, nu: int) -> np.ndarray:
    """Average of the four equally oriented (mu, nu) leaves at each site."""
    return 0.25 * sum(lg.mm(*_leaf_factors(fieldv, mu, nu, leaf))
                      for leaf in _LEAVES)


def clover_log(geom: LatticeGeometry, clover: np.ndarray, mu: int, nu: int
               ) -> np.ndarray:
    """F_{mu nu} from a (mu, nu) clover: its su(2) log over the cell area."""
    a = geom.spacings
    return lg.project_su(lg.log(clover)) / (a[mu] * a[nu])


@dataclass
class BigradedCurvature:
    geometry: LatticeGeometry
    F: Dict[Tuple[int, int], np.ndarray]   # (mu < nu, 0-based) -> (*dims, 2, 2)

    def component(self, mu: int, nu: int) -> np.ndarray:
        if mu < nu:
            return self.F[(mu, nu)]
        return -self.F[(nu, mu)]

    def sector_pairs(self, sector: str) -> Tuple[Tuple[int, int], ...]:
        return tuple(p for p in self.F
                     if self.geometry.sector(*p) == sector)

    def sector_max_norm(self, sector: str) -> float:
        """Max over sites of the Frobenius norm of any component in the sector."""
        worst = 0.0
        for p in self.sector_pairs(sector):
            worst = max(worst, float(np.max(np.abs(self.F[p]))))
        return worst

    def norm2_density(self) -> np.ndarray:
        """|F|^2 per site under the inner product -4 tr(a b)."""
        out = None
        for p, mat in sorted(self.F.items()):
            term = lg.killing_inner_batched(mat, mat)
            out = term if out is None else out + term
        return out


def field_strength(fieldv: GaugeField) -> BigradedCurvature:
    """Clover-log field strength F_{mu nu}(x), exact on constant abelian fields."""
    geom = fieldv.geometry
    F = {}
    for mu in range(geom.naxes):
        for nu in range(mu + 1, geom.naxes):
            F[(mu, nu)] = clover_log(geom, clover_field(fieldv, mu, nu), mu, nu)
    return BigradedCurvature(geom, F)


def ym_action(fieldv: GaugeField, curvature: BigradedCurvature | None = None
              ) -> float:
    curv = curvature or field_strength(fieldv)
    dens = curv.norm2_density()
    return float(np.sum(dens)) * fieldv.geometry.cell_volume


def curvature_vector(curv: BigradedCurvature) -> np.ndarray:
    """Stack F into shape (n_pairs, *dims, 2, 2) in lexicographic pair order."""
    pairs = sorted(curv.F)
    return np.stack([curv.F[p] for p in pairs], axis=0)


def _orthogonal_weight(model: CalibratedModel) -> np.ndarray:
    """W = I - P_{-1} on the 2-form basis: the off-eigenspace projector.

    Raises ValueError unless the lowest eigenvalue of Q_theta is -1, since
    for any other scale P_{-1} is empty and W would weigh the whole energy.
    """
    dec = decompose(model)
    if abs(dec.lambda_min + 1.0) > 1e-9:
        raise ValueError(
            f"model {model.label!r} has lowest eigenvalue {dec.lambda_min:.6g}, "
            "not -1; rescale theta with calibration.normalize_admissible")
    return np.eye(dec.projectors[0].shape[0]) - dec.projectors[0]


def theta_residual(fieldv: GaugeField,
                   curvature: BigradedCurvature | None = None) -> float:
    """Energy cellvol * sum_x <W F, W F> outside the -1 eigenspace."""
    geom = fieldv.geometry
    curv = curvature or field_strength(fieldv)
    wf = np.tensordot(_orthogonal_weight(geom.model), curvature_vector(curv),
                      axes=(1, 0))
    return float(np.sum(lg.killing_inner_batched(wf, wf))) * geom.cell_volume


@dataclass(frozen=True)
class ChargeReport:
    kappa: float
    kappa_theta: float
    kappa_alpha: float
    kappa_beta_slicewise: Tuple[float, ...]
    ym_action: float
    residual_theta: float

    def to_json(self) -> dict:
        return {
            "kappa": self.kappa,
            "kappa_theta": self.kappa_theta,
            "kappa_alpha": self.kappa_alpha,
            "kappa_beta_slicewise": list(self.kappa_beta_slicewise),
            "ym_action": self.ym_action,
            "residual_theta": self.residual_theta,
            "splitting_residual": self.splitting_residual(),
        }

    def splitting_residual(self, vol_y: float | None = None) -> float:
        if not self.kappa_beta_slicewise:
            return 0.0
        vy = 1.0 if vol_y is None else vol_y
        mean_beta = sum(self.kappa_beta_slicewise) / len(self.kappa_beta_slicewise)
        return abs(self.kappa_theta - vy * mean_beta - self.kappa_alpha)


def _density_4subset(curv: BigradedCurvature, subset: Tuple[int, ...]
                     ) -> np.ndarray:
    """tr(F ^ F) coefficient on dx_{a b c d} per site (a<b<c<d, 0-based)."""
    a, b, c, d = subset
    t = np.einsum("...ij,...ji->...", curv.component(a, b), curv.component(c, d))
    t -= np.einsum("...ij,...ji->...", curv.component(a, c), curv.component(b, d))
    t += np.einsum("...ij,...ji->...", curv.component(a, d), curv.component(b, c))
    return 2.0 * np.real(t)


def _charge_pairing(curv: BigradedCurvature, form_coeffs,
                    cellvol: float) -> float:
    """(1/8 pi^2) integral of tr(F ^ F) ^ theta for a coefficient map."""
    n = curv.geometry.naxes
    total = 0.0
    for subset in itertools.combinations(range(n), 4):
        comp = tuple(sorted(set(range(n)) - set(subset)))
        coeff = form_coeffs(tuple(i + 1 for i in comp))
        if coeff == 0.0:
            continue
        sign = merge_sign(tuple(i + 1 for i in subset),
                          tuple(i + 1 for i in comp))
        dens = _density_4subset(curv, subset)
        total += sign * coeff * float(np.sum(dens))
    return total * cellvol / (8.0 * np.pi ** 2)


def charges(fieldv: GaugeField,
            curvature: BigradedCurvature | None = None) -> ChargeReport:
    """Chern-Weil charges: total, theta-, alpha-, and per-slice beta-pairings."""
    geom = fieldv.geometry
    model = geom.model
    curv = curvature or field_strength(fieldv)
    cellvol = geom.cell_volume

    kappa_theta = _charge_pairing(curv, lambda idx: model.theta[idx], cellvol)
    if model.alpha is not None:
        kappa_alpha = _charge_pairing(curv, lambda idx: model.alpha[idx], cellvol)
    else:
        kappa_alpha = 0.0

    beta_slices: Tuple[float, ...] = ()
    if geom.split is not None and model.beta is not None:
        dy, dx = geom.split
        beta = model.beta
        x_cell = math.prod(geom.spacings[dy:])
        x_axes = range(dy, geom.naxes)
        y_sites = list(itertools.product(*(range(geom.dims[i]) for i in range(dy))))
        vals = []
        for y in y_sites:
            acc = 0.0
            for subset in itertools.combinations(x_axes, 4):
                comp = tuple(sorted(set(x_axes) - set(subset)))
                coeff = beta[tuple(i - dy + 1 for i in comp)]
                if coeff == 0.0:
                    continue
                sign = merge_sign(tuple(i - dy + 1 for i in subset),
                                  tuple(i - dy + 1 for i in comp))
                dens = _density_4subset(curv, subset)[y]
                acc += sign * coeff * float(np.sum(dens))
            vals.append(acc * x_cell / (8.0 * np.pi ** 2))
        beta_slices = tuple(vals)

    if geom.naxes == 4:
        kappa = _charge_pairing(curv, lambda idx: 1.0 if idx == () else 0.0,
                                cellvol)
    elif beta_slices:
        kappa = sum(beta_slices) / len(beta_slices)
    else:
        kappa = kappa_theta

    return ChargeReport(
        kappa=kappa,
        kappa_theta=kappa_theta,
        kappa_alpha=kappa_alpha,
        kappa_beta_slicewise=beta_slices,
        ym_action=ym_action(fieldv, curv),
        residual_theta=theta_residual(fieldv, curv),
    )


def random_gauge_transform(geom: LatticeGeometry, seed: int,
                           scale: float = 1.0) -> np.ndarray:
    """Site-wise random special unitary transformation g(x)."""
    rng = np.random.default_rng(seed)
    alg = lg.random_su(rng, geom.dims, scale=scale)
    return lg.exp(alg)


def apply_gauge(fieldv: GaugeField, g: np.ndarray) -> GaugeField:
    """U_mu(x) -> g(x) U_mu(x) g(x + mu)^dagger."""
    new_links = np.empty_like(fieldv.links)
    for mu in range(fieldv.geometry.naxes):
        new_links[mu] = g @ fieldv.links[mu] @ lg.dagger(shift(g, mu))
    return GaugeField(fieldv.geometry, new_links, fieldv.twist)


# Version of the field file layout that save_field writes and load_field reads
FIELD_FORMAT = 1

# Largest max |U U^dagger - 1| that load_field accepts
LOAD_UNITARITY_TOL = 1e-10


def save_field(fieldv: GaugeField, path: str, seed: int | None = None) -> None:
    """Write a field file: an uncompressed npz archive at exactly ``path``.

    The archive holds ``header``, a 0-d string array with a JSON object
    (format, dims, lengths, split, model, fluxes, seed), and ``links``, the
    complex128 (naxes, *dims, 2, 2) link array.
    """
    geom = fieldv.geometry
    header = {
        "format": FIELD_FORMAT,
        "dims": list(geom.dims),
        "lengths": list(geom.lengths),
        "split": list(geom.split) if geom.split else None,
        "model": geom.model.label,
        "fluxes": [list(row) for row in fieldv.twist.fluxes]
        if fieldv.twist else None,
        "seed": seed,
    }
    # np.savez appends .npz to a str path, so hand it an open file
    with open(path, "wb") as fh:
        np.savez(fh, header=np.array(json.dumps(header)),
                 links=np.asarray(fieldv.links, dtype=np.complex128))


def _read_field_archive(path: str) -> Tuple[dict, np.ndarray]:
    """The parsed header and the links of a field file, checked for layout."""
    with open(path, "rb") as fh:
        magic = fh.read(2)
        if magic[:1] == b"{":
            raise ValueError(f"{path}: JSON field files are no longer read; "
                             "regenerate it as an npz field file")
        if magic != b"PK":
            raise ValueError(f"{path}: not a field file (not an npz archive)")
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as archive:
                members = set(archive.files)
                if members >= {"header", "links"}:
                    header_text = archive["header"]
                    links = archive["links"]
        # what zipfile and numpy raise on damaged bytes
        except (zipfile.BadZipFile, EOFError, OSError, RuntimeError,
                ValueError, NotImplementedError, tokenize.TokenError) as exc:
            raise ValueError(f"{path}: truncated or corrupt field file "
                             f"({exc})") from exc
    missing = sorted({"header", "links"} - members)
    if missing:
        raise ValueError(f"{path}: field file lacks member(s) "
                         + ", ".join(missing))
    try:
        header = json.loads(str(header_text[()]))
    except ValueError as exc:
        raise ValueError(f"{path}: unreadable field file header") from exc
    if not isinstance(header, dict):
        raise ValueError(f"{path}: field file header is not a JSON object")
    if header.get("format") != FIELD_FORMAT:
        raise ValueError(f"{path}: field file format {header.get('format')!r}"
                         f" is not {FIELD_FORMAT}")
    return header, links


def load_field(path: str) -> GaugeField:
    """Read a field written by save_field.

    Raises ValueError, naming the path, unless the file is an intact field
    archive of format FIELD_FORMAT whose complex128 links match its dims,
    and every link is finite and unitary to LOAD_UNITARITY_TOL.
    """
    header, links = _read_field_archive(path)
    try:
        model = catalog(header["model"])
        split = tuple(header["split"]) if header["split"] else None
        geom = LatticeGeometry(tuple(header["dims"]), tuple(header["lengths"]),
                               model, split)
        fluxes = header["fluxes"]
        twist = (TransitionTwist(tuple(map(tuple, fluxes)))
                 if fluxes is not None else None)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed field file header ({exc!r})") \
            from exc
    if links.dtype != np.complex128:
        raise ValueError(f"{path}: links are {links.dtype}, not complex128")
    expected = (geom.naxes,) + geom.dims + (2, 2)
    if links.shape != expected:
        raise ValueError(f"{path}: links shape {links.shape} does not match "
                         f"the header's dims, which need {expected}")
    fieldv = GaugeField(geom, links, twist)
    if not np.all(np.isfinite(links)):
        raise ValueError(f"{path}: links hold non-finite entries")
    dev = fieldv.check_unitarity()
    if dev > LOAD_UNITARITY_TOL:
        raise ValueError(f"{path}: links deviate from unitarity by {dev:.3g}, "
                         f"more than {LOAD_UNITARITY_TOL:g}")
    return fieldv
