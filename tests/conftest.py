import json

import numpy as np
import pytest

from thetalab import calibration as C
from thetalab import lattice as La


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


def asd_fluxes():
    """Abelian flux matrix n_12 = 1, n_34 = -1 (anti-self-dual on T^4)."""
    return [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]


def sd_fluxes():
    """Abelian flux matrix n_12 = 1, n_34 = +1 (self-dual on T^4)."""
    return [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]


@pytest.fixture(scope="session")
def t4_geometry():
    return La.LatticeGeometry((6, 6, 6, 6), (1.0, 1.0, 1.0, 1.0),
                              C.four_manifold_model())


@pytest.fixture(scope="session")
def asd_field(t4_geometry):
    return La.constant_curvature_abelian(t4_geometry, asd_fluxes())


@pytest.fixture(scope="session")
def sd_field(t4_geometry):
    return La.constant_curvature_abelian(t4_geometry, sd_fluxes())


@pytest.fixture(scope="session")
def circle_t4_geometry():
    return La.LatticeGeometry((4, 6, 6, 6, 6), (1.0,) * 5,
                              C.catalog("circle_t4"))


@pytest.fixture(scope="session")
def small_t4_geometry():
    return La.LatticeGeometry((3, 3, 3, 3), (1.0,) * 4,
                              C.four_manifold_model())


def read_links(path):
    """The links member of a field file."""
    with np.load(path) as archive:
        return archive["links"]


def _rewrite_members(path, **members):
    """Replace members of a field file; a member given as None is dropped."""
    with np.load(path) as archive:
        kept = {name: archive[name] for name in archive.files}
    kept.update(members)
    with open(path, "wb") as fh:
        np.savez(fh, **{k: v for k, v in kept.items() if v is not None})


def rewrite_links(path, links):
    """Replace the links member of a field file, keeping its header."""
    _rewrite_members(path, links=links)


def _rewrite_header(path, **changes):
    with np.load(path) as archive:
        header = json.loads(str(archive["header"][()]))
    header.update(changes)
    _rewrite_members(path, header=np.array(json.dumps(header)))


def _write_json_field(path, field):
    """The JSON layout field files had before they became npz archives."""
    geom = field.geometry
    with open(path, "w") as fh:
        json.dump({"dims": list(geom.dims), "lengths": list(geom.lengths),
                   "split": None, "model": geom.model.label, "r": 2,
                   "fluxes": None, "seed": None,
                   "links": [np.real(field.links).tolist(),
                             np.imag(field.links).tolist()]}, fh)


def _damage_bytes(path, edit):
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    with open(path, "wb") as fh:
        fh.write(edit(data))


def _flip_middle_byte(data):
    data[len(data) // 2] ^= 0xFF
    return data


# case -> (damage done to a valid 3^4 field file, fragment of the error)
_MALFORMED = {
    "old_json": (_write_json_field, "JSON field files"),
    "not_npz": (lambda p, f: _damage_bytes(p, lambda d: b"not a field\n"),
                "not an npz archive"),
    "truncated": (lambda p, f: _damage_bytes(p, lambda d: d[:len(d) // 2]),
                  "truncated or corrupt"),
    "corrupt": (lambda p, f: _damage_bytes(p, _flip_middle_byte),
                "truncated or corrupt"),
    "no_header": (lambda p, f: _rewrite_members(p, header=None),
                  "lacks member(s) header"),
    "no_links": (lambda p, f: _rewrite_members(p, links=None),
                 "lacks member(s) links"),
    "format_2": (lambda p, f: _rewrite_header(p, format=2), "format 2 is not 1"),
    "complex64": (lambda p, f: rewrite_links(p, f.links.astype(np.complex64)),
                  "not complex128"),
    "wrong_dims": (lambda p, f: _rewrite_header(p, dims=[3, 3, 3, 2]),
                   "does not match the header's dims"),
}


@pytest.fixture(params=sorted(_MALFORMED))
def malformed_field_file(request, tmp_path, small_t4_geometry):
    """(path, error fragment) of a field file damaged in one way."""
    damage, fragment = _MALFORMED[request.param]
    path = str(tmp_path / "bad.npz")
    field = La.trivial_field(small_t4_geometry)
    La.save_field(field, path)
    damage(path, field)
    return path, fragment
