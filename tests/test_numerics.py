import numpy as np
import pytest

from oracles import gauss_solve, jacobi_eigenvalues, random_spd
from wsnadapt.errors import DimensionMismatch, NoConvergence, NonFinite, NotPositiveDefinite
from wsnadapt.numerics import cholesky_factor, forward_substitute, max_eigenvalue


def test_cholesky_identity():
    assert np.array_equal(cholesky_factor(np.eye(3)), np.eye(3))


def test_cholesky_hand_checked_2x2():
    low = cholesky_factor([[4.0, 2.0], [2.0, 3.0]])
    expected = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
    assert np.allclose(low, expected, rtol=0, atol=1e-15)


def test_cholesky_rank_deficient_raises():
    with pytest.raises(NotPositiveDefinite):
        cholesky_factor([[1.0, 1.0], [1.0, 1.0]])


def test_cholesky_reconstructs_and_is_exactly_lower_triangular():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = random_spd(rng, int(rng.integers(1, 9)))
        low = cholesky_factor(a)
        assert np.all(np.triu(low, 1) == 0.0)
        err = np.abs(low @ low.T - a).max() / np.abs(a).max()
        assert err < 1e-10


def test_cholesky_rejects_asymmetric():
    with pytest.raises(DimensionMismatch):
        cholesky_factor([[1.0, 0.5], [0.2, 1.0]])


def test_forward_substitute_matches_elimination_on_every_leading_block():
    # select_nodes reads the accuracy of every prefix off one substitution,
    # so y[:k] must be the leading k x k block's solution, bit for bit.
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(1, 11))
        low = cholesky_factor(random_spd(rng, n))
        b = rng.normal(size=n)
        y = forward_substitute(low, b)
        assert np.allclose(y, gauss_solve(low, b), rtol=1e-9, atol=1e-12)
        for k in range(1, n + 1):
            assert np.array_equal(forward_substitute(low[:k, :k], b[:k]), y[:k]), (n, k)


def test_max_eigenvalue_diagonal():
    assert max_eigenvalue(np.diag([1.0, 2.0, 4.0])) == pytest.approx(4.0, rel=1e-8)
    assert max_eigenvalue(np.eye(5)) == pytest.approx(1.0, rel=1e-10)
    # one matrix per call: a stack of two is not a matrix
    with pytest.raises(DimensionMismatch):
        max_eigenvalue(np.stack([np.eye(3), np.diag([1.0, 2.0, 4.0])]))


def test_max_eigenvalue_matches_jacobi_oracle(default_cov):
    lam = max_eigenvalue(default_cov.ruu)
    lam_true = jacobi_eigenvalues(default_cov.ruu)[-1]
    assert lam == pytest.approx(lam_true, rel=1e-6)


def test_max_eigenvalue_rayleigh_lower_bound():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = random_spd(rng, 6)
        lam = max_eigenvalue(a)
        for _ in range(5):
            v = rng.normal(size=6)
            quotient = (v @ a @ v) / (v @ v)
            assert lam >= quotient - 1e-9 * lam


def test_max_eigenvalue_no_convergence():
    # the Rayleigh quotient from all ones moves by a quarter of its gap to
    # the eigenvalue each iteration, far from 1e-8 after two
    with pytest.raises(NoConvergence, match="still moving after 2 iterations"):
        max_eigenvalue(np.diag([1.0, 0.5]), max_iter=2)


def test_max_eigenvalue_zero_matrix():
    assert max_eigenvalue(np.zeros((3, 3))) == 0.0


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_max_eigenvalue_refuses_a_non_finite_matrix(bad):
    a = np.eye(3)
    a[0, 1] = a[1, 0] = bad
    with pytest.raises(NonFinite, match="non-finite entry"):
        max_eigenvalue(a)
