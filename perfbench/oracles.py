"""Independent recomputations and pass/fail checks for the benchmark.

Nothing here calls thetalab's curvature, log or projection code.  The
field strength is rebuilt from plain ``@`` products of rolled links and an
eigendecomposition logarithm, and the theta-residual of the S^1 x T^4
model is written out from its closed-form eigenspaces.

Every ``check_*`` function returns a list of failure messages; an empty
list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

# Self-dual combinations (F_12 + F_34, F_13 - F_24, F_14 + F_23) / sqrt 2 of
# the X planes, as (sign, (a, b)) pairs in 1-based X-axis labels.
SD_COMBINATIONS = (
    ((+1, (1, 2)), (+1, (3, 4))),
    ((+1, (1, 3)), (-1, (2, 4))),
    ((+1, (1, 4)), (+1, (2, 3))),
)


# ------------------------------------------------------------ SU(2) inputs

def random_su2(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Gaussian su(2) elements i(x sigma_x + y sigma_y + z sigma_z)."""
    x, y, z = rng.standard_normal((3,) + shape)
    out = np.empty(shape + (2, 2), dtype=complex)
    out[..., 0, 0] = 1j * z
    out[..., 1, 1] = -1j * z
    out[..., 0, 1] = y + 1j * x
    out[..., 1, 0] = -y + 1j * x
    return out


def exp_su2(a: np.ndarray) -> np.ndarray:
    """exp(A) = cos|a| I + sin|a|/|a| A for A in su(2), |a|^2 = det A."""
    theta = np.sqrt(np.abs(a[..., 0, 0] * a[..., 1, 1]
                           - a[..., 0, 1] * a[..., 1, 0]))
    sinc = np.sinc(theta / np.pi)          # sin(theta) / theta, 1 at 0
    out = sinc[..., None, None] * a
    out[..., 0, 0] += np.cos(theta)
    out[..., 1, 1] += np.cos(theta)
    return out


def perturb_links(links: np.ndarray, amplitude: float, seed: int
                  ) -> np.ndarray:
    """Multiply every link on the left by exp(amplitude * random su(2))."""
    rng = np.random.default_rng(seed)
    noise = random_su2(rng, links.shape[:-2])
    return exp_su2(amplitude * noise) @ links


def fibre_gauge(links: np.ndarray, dim_y: int, seed: int) -> np.ndarray:
    """Apply a random gauge transformation that is the identity on y = 0.

    U_mu(x) -> g(x) U_mu(x) g(x + mu)^dagger with g random in SU(2) at every
    site whose Y coordinates are not all zero.
    """
    dims = links.shape[1:-2]
    rng = np.random.default_rng(seed)
    g = exp_su2(random_su2(rng, dims))
    g[(0,) * dim_y] = np.eye(2)
    out = np.empty_like(links)
    for mu in range(len(dims)):
        g_next = np.roll(g, -1, axis=mu)
        out[mu] = g @ links[mu] @ np.conjugate(np.swapaxes(g_next, -1, -2))
    return out


# ---------------------------------------------------- curvature recomputed

def clover(links: np.ndarray, mu: int, nu: int) -> np.ndarray:
    """Mean of the four (mu, nu) leaves anchored at each site."""
    def at(field, d_mu, d_nu):
        out = field
        if d_mu:
            out = np.roll(out, -d_mu, axis=mu)
        if d_nu:
            out = np.roll(out, -d_nu, axis=nu)
        return out

    def dag(m):
        return np.conjugate(np.swapaxes(m, -1, -2))

    u, v = links[mu], links[nu]
    leaf1 = u @ at(v, 1, 0) @ dag(at(u, 0, 1)) @ dag(v)
    leaf2 = v @ dag(at(u, -1, 1)) @ dag(at(v, -1, 0)) @ at(u, -1, 0)
    leaf3 = dag(at(u, -1, 0)) @ dag(at(v, -1, -1)) @ at(u, -1, -1) \
        @ at(v, 0, -1)
    leaf4 = dag(at(v, 0, -1)) @ at(u, 0, -1) @ at(v, 1, -1) @ dag(u)
    return 0.25 * (leaf1 + leaf2 + leaf3 + leaf4)


def log_traceless(c: np.ndarray) -> np.ndarray:
    """Anti-Hermitian traceless part of the principal log, by eigenvectors."""
    lam, s = np.linalg.eig(c)
    log_c = (s * np.log(lam)[..., None, :]) @ np.linalg.inv(s)
    anti = 0.5 * (log_c - np.conjugate(np.swapaxes(log_c, -1, -2)))
    trace = np.trace(anti, axis1=-2, axis2=-1)[..., None, None]
    return anti - trace / c.shape[-1] * np.eye(c.shape[-1])


def field_strength(links: np.ndarray, lengths) -> dict:
    """(mu, nu) -> F_{mu nu} per site for every plane mu < nu (0-based)."""
    naxes = links.shape[0]
    dims = links.shape[1:-2]
    a = [l / d for l, d in zip(lengths, dims)]
    return {(mu, nu): log_traceless(clover(links, mu, nu)) / (a[mu] * a[nu])
            for mu in range(naxes) for nu in range(mu + 1, naxes)}


def energy(m: np.ndarray) -> float:
    """Sum over sites of <m, m> = -2r tr(m^2) = 2r |m|_F^2 (anti-Hermitian)."""
    return 2.0 * m.shape[-1] * float(np.sum(np.abs(m) ** 2))


def circle_t4_residual(links: np.ndarray, lengths) -> float:
    """Theta-residual for theta = dy on S^1 x T^4 (Y axis first).

    P_{-1} keeps exactly the anti-self-dual X planes, so the residual is the
    energy of the four (y, x_i) planes plus the self-dual part of the X
    planes, times the cell volume.
    """
    dims = links.shape[1:-2]
    if links.shape[0] != 5:
        raise ValueError("circle_t4 fields have five link directions")
    F = field_strength(links, lengths)
    total = sum(energy(F[(0, i)]) for i in range(1, 5))
    for (s1, p1), (s2, p2) in SD_COMBINATIONS:
        total += energy((s1 * F[p1] + s2 * F[p2]) / math.sqrt(2.0))
    cellvol = math.prod(l / d for l, d in zip(lengths, dims))
    return total * cellvol


def max_mixed_sectors(links: np.ndarray, lengths, dim_y: int
                      ) -> tuple[float, float]:
    """(max |F_20|, max |F_11|) over sites, entrywise, for Y axes first."""
    F = field_strength(links, lengths)
    worst = {2: 0.0, 1: 0.0}
    for (mu, nu), f in F.items():
        in_y = (mu < dim_y) + (nu < dim_y)
        if in_y:
            worst[in_y] = max(worst[in_y], float(np.max(np.abs(f))))
    return worst[2], worst[1]


# ------------------------------------------------------------------ checks

def check_below(name: str, value: float, tol: float) -> list:
    if not (math.isfinite(value) and value < tol):
        return [f"{name} = {value!r} is not below {tol:g}"]
    return []


def check_close(name: str, value: float, expected: float, tol: float,
                relative: bool = False) -> list:
    scale = abs(expected) if relative else 1.0
    if not (math.isfinite(value) and abs(value - expected) <= tol * scale):
        kind = "relative " if relative else ""
        return [f"{name} = {value!r}, expected {expected!r} to {kind}{tol:g}"]
    return []


def check_equal(name: str, value, expected) -> list:
    if value != expected:
        return [f"{name} = {value!r}, expected {expected!r}"]
    return []


def check_matrix(name: str, got: np.ndarray, expected: np.ndarray,
                 tol: float) -> list:
    dev = float(np.max(np.abs(np.asarray(got) - expected)))
    if not dev <= tol:
        return [f"{name} deviates by {dev:.3e} from its closed form "
                f"(tolerance {tol:g})"]
    return []


def check_charge_report(name: str, report: dict, n_slices: int) -> list:
    """kappa = 2, YM = 64 pi^2 (unit volumes), every beta-slice charge 2."""
    errors = check_close(f"{name} kappa", report["kappa"], 2.0, 1e-6)
    errors += check_close(f"{name} ym_action", report["ym_action"],
                          64.0 * math.pi ** 2, 1e-6, relative=True)
    slices = report["kappa_beta_slicewise"]
    errors += check_equal(f"{name} beta-slice count", len(slices), n_slices)
    for i, k in enumerate(slices):
        errors += check_close(f"{name} beta-slice {i} charge", k, 2.0, 1e-6)
    return errors


def u1_holonomy(angle: float) -> np.ndarray:
    return np.diag([np.exp(1j * angle), np.exp(-1j * angle)])


def holonomy_from_report(report: dict) -> np.ndarray:
    return np.array([[re + 1j * im for re, im in row]
                     for row in report["holonomy_at_origin"]])


def relative_gap(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))
