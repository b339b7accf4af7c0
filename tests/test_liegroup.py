import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thetalab import liegroup as lg


def random_su(rng, scale=1.0):
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a = lg.project_su(m)
    return scale * a / max(np.linalg.norm(a), 1e-12)


# --- exp ---------------------------------------------------------------------

def test_exp_zero_is_identity():
    assert np.allclose(lg.exp(np.zeros((2, 2), dtype=complex)), np.eye(2))


def test_exp_diagonal_su2():
    a = np.diag([1j * np.pi / 2, -1j * np.pi / 2])
    assert np.max(np.abs(lg.exp(a) - np.diag([1j, -1j]))) < 1e-14


def test_exp_inverse(rng):
    a = random_su(rng)
    assert np.max(np.abs(lg.exp(a) @ lg.exp(-a) - np.eye(2))) < 1e-12


@given(st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_exp_lands_in_special_unitary(seed):
    rng = np.random.default_rng(seed)
    g = lg.exp(random_su(rng, scale=float(rng.uniform(0, 3))))
    assert lg.is_unitary(g)
    assert abs(np.linalg.det(g) - 1.0) < 1e-12


# --- log ---------------------------------------------------------------------

def test_log_identity_is_zero():
    assert np.max(np.abs(lg.log(np.eye(2, dtype=complex)))) < 1e-14


def test_log_diagonal():
    alpha = 0.9
    g = np.diag([np.exp(1j * alpha), np.exp(-1j * alpha)])
    assert np.max(np.abs(lg.log(g) - np.diag([1j * alpha, -1j * alpha]))) < 1e-12


def test_log_exp_roundtrip(rng):
    for _ in range(20):
        a = random_su(rng, scale=float(rng.uniform(0, 0.9)))
        assert np.max(np.abs(lg.log(lg.exp(a)) - a)) < 1e-10


def test_exp_log_roundtrip(rng):
    for _ in range(20):
        g = lg.exp(random_su(rng, scale=2.0))
        assert np.max(np.abs(lg.exp(lg.log(g)) - g)) < 1e-10


def test_log_branch_guard():
    g = np.diag([np.exp(1j * (np.pi - 1e-5)), np.exp(-1j * (np.pi - 1e-5))])
    with pytest.raises(lg.LogBranchError):
        lg.log(g)


# --- inner product ------------------------------------------------------------

def test_killing_inner_su2_diagonal():
    a = np.diag([1j, -1j])
    assert abs(lg.killing_inner(a, a) - 8.0) < 1e-14


def test_killing_inner_symmetric_positive(rng):
    for _ in range(50):
        a, b = random_su(rng), random_su(rng)
        assert abs(lg.killing_inner(a, b) - lg.killing_inner(b, a)) < 1e-12
        assert lg.killing_inner(a, a) > 0.0


def test_killing_inner_ad_invariance(rng):
    for _ in range(20):
        a, b = random_su(rng), random_su(rng)
        g = lg.exp(random_su(rng, scale=1.5))
        lhs = lg.killing_inner(g @ a @ lg.dagger(g), g @ b @ lg.dagger(g))
        assert abs(lhs - lg.killing_inner(a, b)) < 1e-10


# --- products -------------------------------------------------------------------

def random_stack(rng, shape, dtype):
    return (rng.standard_normal(shape)
            + 1j * rng.standard_normal(shape)).astype(dtype)


@pytest.mark.parametrize("dtype,tol", [(np.complex64, 1e-5),
                                       (np.complex128, 1e-13)])
def test_mm_matches_matmul_chain(dtype, tol):
    rng = np.random.default_rng(3)
    cases = (
        [(5, 3, 2, 2), (5, 3, 2, 2)],                  # equal shapes
        [(4, 5, 3, 2, 2), (5, 3, 2, 2), (4, 1, 3, 2, 2)],   # broadcasting
        [(3, 2, 2), (3, 2, 2), (3, 2, 2), (3, 2, 2)],  # a clover leaf
    )
    for shapes in cases:
        factors = [random_stack(rng, s, dtype) for s in shapes]
        got = lg.mm(*factors)
        want = functools.reduce(np.matmul, factors)
        assert got.dtype == dtype
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < tol * np.max(np.abs(want))


# --- projection -----------------------------------------------------------------

def test_project_su_2x2_matches_general_formula():
    rng = np.random.default_rng(4)
    for dtype, tol in ((np.complex64, 1e-6), (np.complex128, 1e-15)):
        m = random_stack(rng, (7, 3, 2, 2), dtype)
        anti = 0.5 * (m - lg.dagger(m))
        want = anti - np.trace(anti, axis1=-2, axis2=-1)[..., None, None] \
            / 2 * np.eye(2)
        got = lg.project_su(m)
        assert got.dtype == dtype
        assert np.max(np.abs(got - want)) < tol



def test_project_su_cases(rng):
    h = rng.standard_normal((2, 2))
    h = h + h.T                      # real symmetric, hence Hermitian
    assert np.max(np.abs(lg.project_su(h.astype(complex)))) < 1e-14
    a = random_su(rng)
    assert np.max(np.abs(lg.project_su(a) - a)) < 1e-14
    assert np.max(np.abs(lg.project_su(1j * np.eye(2)))) < 1e-14


def test_unitarize_restores_unitarity(rng):
    g = lg.exp(random_su(rng)) + 1e-8 * rng.standard_normal((2, 2))
    u = lg.unitarize(g)
    assert lg.is_unitary(u)
    assert np.max(np.abs(u - g)) < 1e-7


def test_unitarize_matches_svd_polar_factor():
    rng = np.random.default_rng(5)
    near = lg.exp(lg.random_su(rng, (2000,))) \
        + 1e-8 * rng.standard_normal((2000, 2, 2))
    far = rng.standard_normal((200, 2, 2)) \
        + 1j * rng.standard_normal((200, 2, 2))
    for g in (near, far):
        u = lg.unitarize(g)
        assert lg.is_unitary(u)
        left, _, right = np.linalg.svd(g)
        assert np.max(np.abs(u - left @ right)) < 1e-12


# --- stabilizer classification ----------------------------------------------------

def test_classify_central():
    assert lg.classify_stabilizer([np.eye(2), -np.eye(2)]) == "Central"


def test_classify_abelian():
    g = np.diag([np.exp(0.7j), np.exp(-0.7j)])
    assert lg.classify_stabilizer([g]) == "Abelian"


def test_classify_irreducible():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.diag([1.0 + 0j, -1.0])
    g1 = lg.exp(0.5j * sx)
    g2 = lg.exp(0.5j * sz)
    assert lg.classify_stabilizer([g1, g2]) == "Irreducible"
