import json
import math
import os

import numpy as np
import pytest

from thetalab import calibration as C
from thetalab import lattice as La
from thetalab import liegroup as lg
from thetalab import spectral as S
from tests.conftest import asd_fluxes, read_links, rewrite_links, sd_fluxes


# --- geometry ------------------------------------------------------------------

def test_geometry_validation():
    model = C.four_manifold_model()
    with pytest.raises(ValueError):
        La.LatticeGeometry((6, 6, 6), (1.0, 1.0, 1.0), model)
    with pytest.raises(ValueError):
        La.LatticeGeometry((6, 6, 6, 0), (1.0,) * 4, model)
    with pytest.raises(ValueError):
        La.LatticeGeometry((6,) * 4, (1.0, 1.0, 1.0, -1.0), model)


def test_geometry_split_inherited_from_model(circle_t4_geometry):
    assert circle_t4_geometry.split == (1, 4)
    assert circle_t4_geometry.dim_y == 1
    assert circle_t4_geometry.sector(0, 1) == "11"
    assert circle_t4_geometry.sector(1, 2) == "02"


def test_twist_antisymmetry_enforced():
    with pytest.raises(ValueError):
        La.TransitionTwist(((0, 1), (1, 0)))


# --- constant-curvature construction ----------------------------------------------

def test_trivial_fluxes_give_trivial_field(t4_geometry):
    f = La.constant_curvature_abelian(t4_geometry, np.zeros((4, 4), dtype=int))
    assert np.max(np.abs(f.links - np.eye(2))) < 1e-14
    assert La.ym_action(f) < 1e-20


def test_constant_field_strength_exact(asd_field, t4_geometry):
    """Clover log reproduces F_{mu nu} = 2 pi n_{mu nu}/(L_mu L_nu) diag(i,-i)."""
    curv = La.field_strength(asd_field)
    n = np.array(asd_fluxes())
    for mu in range(4):
        for nu in range(mu + 1, 4):
            want = 2 * np.pi * n[mu, nu] * np.diag([1j, -1j])
            got = curv.component(mu, nu)
            assert np.max(np.abs(got - want)) < 1e-10, (mu, nu)


def test_asd_field_is_anti_self_dual(asd_field, sd_field):
    assert La.theta_residual(asd_field) < 1e-10
    assert La.theta_residual(sd_field) > 1.0


def test_plaquette_constant_value(asd_field):
    p = La.plaquette(asd_field, (2, 3, 1, 4), 0, 1)
    want = lg.exp(2j * np.pi / 36 * np.diag([1.0, -1.0]))
    assert np.max(np.abs(p - want)) < 1e-12


def test_links_special_unitary(asd_field):
    assert asd_field.check_unitarity() < 1e-12
    det = np.linalg.det(asd_field.links)
    assert np.max(np.abs(det - 1.0)) < 1e-12


def test_flux_too_large_for_log_branch(t4_geometry):
    big = np.zeros((4, 4), dtype=int)
    big[0, 1], big[1, 0] = 18, -18      # plaquette phase = pi on a 6x6 plane
    with pytest.raises(lg.LogBranchError):
        field = La.constant_curvature_abelian(t4_geometry, big)
        La.field_strength(field)


# --- field strength sectors ---------------------------------------------------------

def test_sector_partition_sums_to_full(circle_t4_geometry, rng):
    field = La.trivial_field(circle_t4_geometry)
    noise = lg.project_su(
        rng.standard_normal(field.links.shape)
        + 1j * rng.standard_normal(field.links.shape))
    field = La.GaugeField(circle_t4_geometry,
                          lg.unitarize(lg.mm(lg.exp(0.05 * noise), field.links)))
    curv = La.field_strength(field)
    pairs = set()
    for s in ("20", "11", "02"):
        sector_pairs = curv.sector_pairs(s)
        assert not pairs & set(sector_pairs)
        pairs.update(sector_pairs)
    assert pairs == set(curv.F)


def test_antisymmetry_of_components(asd_field):
    curv = La.field_strength(asd_field)
    f01 = curv.component(0, 1)
    f10 = curv.component(1, 0)
    assert np.max(np.abs(f01 + f10)) == 0.0


# --- action and charges ----------------------------------------------------------------

def test_ym_action_analytic_value(asd_field):
    """Constant |F| with two unit fluxes: YM = 2 * (-4) tr(F_plane^2) summed
    over the two active planes = 64 pi^2 on the unit T^4."""
    want = 64.0 * np.pi ** 2
    assert abs(La.ym_action(asd_field) - want) < 1e-8 * want


def test_charges_asd_field(asd_field):
    rep = La.charges(asd_field)
    assert abs(rep.kappa - 2.0) < 1e-8
    assert abs(rep.kappa - round(rep.kappa)) < 1e-6
    assert rep.residual_theta < 1e-10


def test_charge_integrality_various_fluxes(t4_geometry):
    for n12, n34 in ((1, 1), (2, -1), (0, 1)):
        f = np.zeros((4, 4), dtype=int)
        f[0, 1], f[1, 0] = n12, -n12
        f[2, 3], f[3, 2] = n34, -n34
        field = La.constant_curvature_abelian(t4_geometry, f)
        rep = La.charges(field)
        assert abs(rep.kappa - (-2 * n12 * n34)) < 1e-6, (n12, n34)


def test_trivial_field_all_charges_zero(t4_geometry):
    rep = La.charges(La.trivial_field(t4_geometry))
    assert rep.kappa == rep.kappa_theta == rep.kappa_alpha == 0.0
    assert rep.ym_action == 0.0


def test_charge_splitting_residual(asd_field, circle_t4_geometry):
    from thetalab.reduction import FlatTwist, pullback_connection
    field = pullback_connection(asd_field, circle_t4_geometry,
                                FlatTwist.trivial(1))
    rep = La.charges(field)
    vol_y = circle_t4_geometry.lengths[0]
    assert rep.splitting_residual(vol_y) < 1e-8


def test_asd_bound_saturation(asd_field):
    """Abelian ASD fields saturate the topological lower bound:
    YM = 16 r pi^2 kappa (r = 2) with the measured charge kappa."""
    rep = La.charges(asd_field)
    bound = 16.0 * 2 * np.pi ** 2 * rep.kappa
    assert abs(rep.ym_action - bound) < 1e-6 * abs(bound)


# --- gauge invariance ------------------------------------------------------------------

def test_gauge_invariance_of_observables(asd_field):
    rep0 = La.charges(asd_field)
    for seed in range(5):
        g = La.random_gauge_transform(asd_field.geometry, seed=seed)
        gauged = La.apply_gauge(asd_field, g)
        rep = La.charges(gauged)
        assert abs(rep.ym_action - rep0.ym_action) < 1e-10 * rep0.ym_action
        assert abs(rep.kappa - rep0.kappa) < 1e-10
        assert abs(rep.kappa_theta - rep0.kappa_theta) < 1e-10
        assert abs(La.theta_residual(gauged) - La.theta_residual(asd_field)) < 1e-10


def test_gauge_identity_and_composition(asd_field):
    geom = asd_field.geometry
    ident = np.zeros(geom.dims + (2, 2), dtype=complex)
    ident[...] = np.eye(2)
    assert np.max(np.abs(La.apply_gauge(asd_field, ident).links
                         - asd_field.links)) == 0.0
    g = La.random_gauge_transform(geom, seed=1)
    h = La.random_gauge_transform(geom, seed=2)
    twice = La.apply_gauge(La.apply_gauge(asd_field, g), h)
    combined = La.apply_gauge(asd_field, np.matmul(h, g))
    assert np.max(np.abs(twice.links - combined.links)) < 1e-12


def test_plaquette_trace_gauge_invariant(asd_field):
    g = La.random_gauge_transform(asd_field.geometry, seed=3)
    gauged = La.apply_gauge(asd_field, g)
    t0 = np.trace(La.plaquette(asd_field, (0, 0, 0, 0), 0, 1))
    t1 = np.trace(La.plaquette(gauged, (0, 0, 0, 0), 0, 1))
    assert abs(t0 - t1) < 1e-12


# --- perturbation scaling -----------------------------------------------------------------

def test_theta_residual_quadratic_scaling(asd_field):
    from thetalab.flow import perturb
    r1 = La.theta_residual(perturb(asd_field, 0.01, seed=5))
    r2 = La.theta_residual(perturb(asd_field, 0.02, seed=5))
    ratio = r2 / r1
    assert 3.0 < ratio < 5.0


# --- serialization --------------------------------------------------------------------------

def test_field_file_roundtrip(tmp_path, asd_field):
    path = str(tmp_path / "field.npz")
    La.save_field(asd_field, path, seed=42)
    back = La.load_field(path)
    assert back.links.tobytes() == asd_field.links.tobytes()
    assert back.geometry.dims == asd_field.geometry.dims
    assert back.geometry.lengths == asd_field.geometry.lengths
    assert back.geometry.model.label == asd_field.geometry.model.label


@pytest.mark.parametrize("value",
                         [float("nan"), float("inf"), 5.0, 1.0 + 1e-9])
def test_load_field_rejects_non_finite_or_non_unitary_links(tmp_path, value):
    path = str(tmp_path / "bad.json")
    field = La.trivial_field(La.LatticeGeometry((2, 2, 2, 2), (1.0,) * 4,
                                                C.four_manifold_model()))
    La.save_field(field, path)
    links = read_links(path)
    links.real[0, 0, 0, 0, 0, 0, 0] = value
    rewrite_links(path, links)
    with pytest.raises(ValueError):
        La.load_field(path)


def test_save_field_writes_exactly_the_given_path(tmp_path, small_t4_geometry):
    field = La.trivial_field(small_t4_geometry)
    for name in ("x.json", "x.npz"):
        La.save_field(field, str(tmp_path / name))
    assert sorted(os.listdir(tmp_path)) == ["x.json", "x.npz"]
    assert (tmp_path / "x.json").read_bytes() == (tmp_path / "x.npz").read_bytes()


def test_save_field_is_byte_reproducible(tmp_path, asd_field):
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    La.save_field(asd_field, str(a), seed=3)
    La.save_field(asd_field, str(b), seed=3)
    assert a.read_bytes() == b.read_bytes()


def test_field_file_header_roundtrips_seed_split_fluxes(tmp_path):
    geom = La.LatticeGeometry((2, 3, 3, 3, 3), (1.0,) * 5,
                              C.catalog("circle_t4"))
    fluxes = np.zeros((5, 5), dtype=int)
    fluxes[1, 2], fluxes[3, 4] = 1, -1
    fluxes -= fluxes.T
    field = La.constant_curvature_abelian(geom, fluxes)
    path = str(tmp_path / "field.npz")
    La.save_field(field, path, seed=7)
    with np.load(path) as archive:
        assert sorted(archive.files) == ["header", "links"]
        header = json.loads(str(archive["header"][()]))
    assert header == {"format": 1, "dims": [2, 3, 3, 3, 3],
                      "lengths": [1.0] * 5, "split": [1, 4],
                      "model": "circle_t4", "fluxes": fluxes.tolist(),
                      "seed": 7}
    back = La.load_field(path)
    assert back.geometry.split == (1, 4)
    assert back.twist == field.twist


def test_load_field_rejects_malformed_file(malformed_field_file):
    path, fragment = malformed_field_file
    with pytest.raises(ValueError) as info:
        La.load_field(path)
    assert path in str(info.value) and fragment in str(info.value)


def test_load_field_accepts_roundoff_in_unitarity(tmp_path):
    path = str(tmp_path / "near.json")
    field = La.trivial_field(La.LatticeGeometry((2, 2, 2, 2), (1.0,) * 4,
                                                C.four_manifold_model()))
    field.links[0, 0, 0, 0, 0, 0, 0] += 1e-13
    La.save_field(field, path)
    assert La.load_field(path).links.tobytes() == field.links.tobytes()


# --- SU(2)-only links ----------------------------------------------------------------

def test_rank_three_links_rejected(tmp_path, small_t4_geometry):
    links = np.zeros((4,) + small_t4_geometry.dims + (3, 3), dtype=complex)
    links[...] = np.eye(3)
    with pytest.raises(ValueError):
        La.GaugeField(small_t4_geometry, links)
    path = str(tmp_path / "r3.json")
    field = La.trivial_field(small_t4_geometry)
    La.save_field(field, path)
    rewrite_links(path, links)
    with pytest.raises(ValueError):
        La.load_field(path)


# --- clover leaves -------------------------------------------------------------------

def random_nonabelian_field(seed):
    geom = La.LatticeGeometry((3, 4, 3, 5), (1.0, 2.0, 1.5, 1.0),
                              C.four_manifold_model())
    from thetalab.flow import perturb
    return perturb(La.trivial_field(geom), 0.5, seed=seed)


def test_clover_field_matches_explicit_leaves():
    field = random_nonabelian_field(seed=21)
    dims = field.geometry.dims
    d = lg.dagger

    def link(axis, x, mu, nu, dmu, dnu):
        pos = list(x)
        pos[mu] += dmu
        pos[nu] += dnu
        return field.links[(axis,) + tuple(p % n for p, n in zip(pos, dims))]

    for mu, nu, x in ((0, 1, (0, 0, 0, 0)), (1, 3, (2, 3, 1, 4)),
                      (2, 3, (1, 0, 2, 2))):
        def u(axis, dmu, dnu):
            return link(axis, x, mu, nu, dmu, dnu)
        leaves = (
            u(mu, 0, 0) @ u(nu, 1, 0) @ d(u(mu, 0, 1)) @ d(u(nu, 0, 0)),
            u(nu, 0, 0) @ d(u(mu, -1, 1)) @ d(u(nu, -1, 0)) @ u(mu, -1, 0),
            d(u(mu, -1, 0)) @ d(u(nu, -1, -1)) @ u(mu, -1, -1) @ u(nu, 0, -1),
            d(u(nu, 0, -1)) @ u(mu, 0, -1) @ u(nu, 1, -1) @ d(u(mu, 0, 0)),
        )
        want = 0.25 * sum(leaves)
        got = La.clover_field(field, mu, nu)[x]
        assert np.max(np.abs(got - want)) < 1e-14, (mu, nu, x)


# --- theta residual ------------------------------------------------------------------

def per_eigenspace_residual(field):
    """sum over the eigenspaces of Q_theta other than -1 of |P_lam F|^2."""
    dec = S.decompose(field.geometry.model)
    vec = La.curvature_vector(La.field_strength(field))
    total = 0.0
    for lam, proj in zip(dec.eigenvalues, dec.projectors):
        if abs(lam + 1.0) < 1e-9:
            continue
        pv = np.tensordot(proj, vec, axes=(1, 0))
        total += float(np.sum(lg.killing_inner_batched(pv, pv)))
    return total * field.geometry.cell_volume


def test_theta_residual_matches_per_eigenspace_sum(circle_t4_geometry):
    from thetalab.flow import perturb
    for field in (random_nonabelian_field(seed=22),
                  perturb(La.trivial_field(circle_t4_geometry), 0.1, seed=23)):
        want = per_eigenspace_residual(field)
        assert want > 1e-3
        assert abs(La.theta_residual(field) - want) < 1e-12 * want


def test_theta_residual_rejects_unnormalized_model():
    half = C.CalibratedModel(4, 0.5 * C.four_manifold_model().theta,
                             label="half_four_manifold")
    assert abs(S.decompose(half).lambda_min + 0.5) < 1e-12
    geom = La.LatticeGeometry((2,) * 4, (1.0,) * 4, half)
    with pytest.raises(ValueError):
        La.theta_residual(La.trivial_field(geom))
