import numpy as np
import pytest

from oracles import (
    best_accuracy_per_size,
    gauss_solve,
    jacobi_eigenvalues,
    prefix_accuracy_curve,
    quadratic_error,
    random_layout,
)
from wsnadapt.ada import (
    CovariancePair,
    select_nodes,
    steepest_descent,
    step_size_bound,
)
from wsnadapt.errors import (
    DimensionMismatch,
    NoConvergence,
    NotPositiveDefinite,
    StepSizeOutOfRange,
    TargetUnreachable,
)
from wsnadapt.fieldgen import FieldParams, NodeLayout, build_spatial_covariance
from wsnadapt.numerics import cholesky_factor, max_eigenvalue
from wsnadapt.sim import default_layout


def random_scenario(rng, m: int) -> tuple[NodeLayout, CovariancePair]:
    positions, sink = random_layout(rng, m)
    layout = NodeLayout(positions=tuple(positions), sink=sink, node_ids=tuple(range(1, m + 1)))
    params = FieldParams(theta=float(rng.uniform(0.8, 3.0)))
    return layout, build_spatial_covariance(layout, params)


def random_cov(rng, m: int) -> CovariancePair:
    return random_scenario(rng, m)[1]


def error_of(cov: CovariancePair, w) -> float:
    return quadratic_error(cov.ruu, cov.rdu, cov.sigma_d_sq, w)


def test_a_matrix_with_negative_entries_takes_its_true_largest_eigenvalue():
    # All ones is an eigenvector of eigenvalue 1, orthogonal to the
    # dominant one: a power iteration from it would stop at 1.
    ruu = np.array([[2.0, -1.0], [-1.0, 2.0]])
    assert max_eigenvalue(ruu) == pytest.approx(3.0, rel=1e-15)
    assert step_size_bound(ruu) == pytest.approx(2.0 / 3.0, rel=1e-15)
    trace = steepest_descent(CovariancePair(ruu, np.array([1.0, -1.0]), 4.0))
    assert trace.iterations == 1
    assert np.allclose(trace.final_weight, [1.0 / 3.0, -1.0 / 3.0], rtol=1e-15, atol=0)


def test_step_size_bound_trivials():
    assert step_size_bound(np.eye(4)) == pytest.approx(2.0, rel=1e-10)
    assert step_size_bound(np.diag([1.0, 2.0, 4.0])) == pytest.approx(0.5, rel=1e-8)


def test_step_size_bound_matches_jacobi(default_cov):
    lam = jacobi_eigenvalues(default_cov.ruu)[-1]
    assert step_size_bound(default_cov.ruu) == pytest.approx(2.0 / lam, rel=1e-5)


def test_descent_one_step_identity():
    cov = CovariancePair(ruu=np.array([[1.0]]), rdu=np.array([0.5]), sigma_d_sq=1.0)
    trace = steepest_descent(cov, mu=1.0)
    assert trace.iterations == 1
    assert trace.final_weight[0] == 0.5


def test_descent_rejects_large_mu():
    cov = CovariancePair(ruu=np.eye(2), rdu=np.array([0.3, 0.1]), sigma_d_sq=1.0)
    with pytest.raises(StepSizeOutOfRange):
        steepest_descent(cov, mu=2.5)
    with pytest.raises(StepSizeOutOfRange):
        steepest_descent(cov, mu=-0.1)


def test_descent_matches_direct_solve(default_cov):
    trace = steepest_descent(default_cov, tol=1e-12)
    w_star = gauss_solve(default_cov.ruu, default_cov.rdu)
    assert np.max(np.abs(trace.final_weight - w_star)) < 1e-8


def test_descent_monotone_error_and_trace_consistency():
    rng = np.random.default_rng(17)
    for _ in range(10):
        cov = random_cov(rng, int(rng.integers(2, 9)))
        bound = step_size_bound(cov.ruu)
        for mu in (0.3 * bound, 0.5 * bound, 0.95 * bound):
            trace = steepest_descent(cov, mu=mu, max_iter=4000)
            assert trace.mmse.dtype == np.float64
            assert np.all(np.diff(trace.mmse) <= 1e-12)
            assert trace.iterations + 1 == len(trace.mmse)
            assert trace.mmse[0] == cov.sigma_d_sq  # zero start carries zero accuracy


def test_descent_fixed_point_residual(default_cov):
    trace = steepest_descent(default_cov, tol=1e-8)
    res = default_cov.rdu - default_cov.ruu @ trace.final_weight
    assert np.linalg.norm(res) <= 1e-8 * np.linalg.norm(default_cov.rdu)


def test_descent_errors_are_exact_mmse_of_every_iterate(default_cov):
    trace = steepest_descent(default_cov, tol=1e-10)
    assert trace.mmse[-1] == error_of(default_cov, trace.final_weight)
    # A run's accuracy column is this array expression, equal bit for bit
    # to the accuracy of each iterate.
    acc = 1.0 - trace.mmse / default_cov.sigma_d_sq
    w = np.zeros(default_cov.order)
    for k, err in enumerate(trace.mmse):
        assert err == error_of(default_cov, w), k
        assert acc[k] == 1.0 - error_of(default_cov, w) / default_cov.sigma_d_sq, k
        if k < trace.iterations:
            w = w + trace.mu * (default_cov.rdu - default_cov.ruu @ w)
    assert np.array_equal(w, trace.final_weight)


def at_offset(a: np.ndarray, offset: int) -> np.ndarray:
    """A copy of ``a`` whose data start ``offset`` bytes past a 64-byte boundary."""
    raw = np.empty(a.size + 8)
    skip = (offset - raw.ctypes.data) % 64 // 8
    copy = raw[skip : skip + a.size].reshape(a.shape)
    copy[...] = a
    assert copy.ctypes.data % 64 == offset
    return copy


def test_ruu_starts_on_a_cache_line_and_the_descent_has_the_same_bits_anywhere():
    # Where the heap put R_uu moved the descent's time, not its bits.
    rng = np.random.default_rng(23)
    for m in (1, 7, 60):
        _, cov = random_scenario(rng, m)
        assert cov.ruu.ctypes.data % 64 == 0
    runs = [
        steepest_descent(CovariancePair(at_offset(cov.ruu, offset), cov.rdu, cov.sigma_d_sq))
        for offset in (0, 16)
    ]
    assert runs[0].mmse.tobytes() == runs[1].mmse.tobytes()
    assert runs[0].final_weight.tobytes() == runs[1].final_weight.tobytes()


def test_descent_final_weight_exact_under_iteration_cap():
    # A cap of exactly the iterations a descent needs returns the same
    # trace; one fewer raises.
    rng = np.random.default_rng(19)
    for _ in range(5):
        cov = random_cov(rng, int(rng.integers(2, 9)))
        free = steepest_descent(cov, tol=1e-10)
        k = free.iterations
        capped = steepest_descent(cov, max_iter=k, tol=1e-10)
        assert capped.iterations == k == len(capped.mmse) - 1
        assert np.array_equal(capped.final_weight, free.final_weight)
        assert np.array_equal(capped.mmse, free.mmse)
        assert capped.mmse[-1] == error_of(cov, capped.final_weight)
        with pytest.raises(NoConvergence, match=f"after {k - 1} iterations$"):
            steepest_descent(cov, max_iter=k - 1, tol=1e-10)


def test_descent_max_iter_flag():
    cov = CovariancePair(ruu=np.eye(2), rdu=np.array([1.0, 1.0]), sigma_d_sq=4.0)
    with pytest.raises(NoConvergence, match="after 5 iterations"):
        steepest_descent(cov, mu=1e-4, tol=1e-12, max_iter=5)


def test_accuracy_single_node_closed_form():
    rng = np.random.default_rng(23)
    for _ in range(200):
        distance = float(rng.uniform(0.0, 10.0))
        theta = 2.0
        rho = float(np.exp(-distance / theta))
        params = FieldParams(theta=theta, sigma_d=float(rng.uniform(0.5, 2.0)))
        layout = NodeLayout(positions=((distance, 0.0),), sink=(0.0, 0.0), node_ids=(1,))
        cov = build_spatial_covariance(layout, params)
        assert select_nodes(layout, cov, count=1).accuracy[0] == pytest.approx(rho**2, abs=1e-12)


def test_accuracy_in_unit_interval_over_random_layouts():
    rng = np.random.default_rng(31)
    for _ in range(400):
        m = int(rng.integers(1, 11))
        layout, cov = random_scenario(rng, m)
        curve = select_nodes(layout, cov, count=m).accuracy
        assert np.all((0.0 <= curve) & (curve <= 1.0))


def test_select_full_set_when_target_is_max(default_scenario, default_cov):
    sel = select_nodes(default_scenario.layout, default_cov, count=10)
    full_acc = sel.accuracy[-1]
    again = select_nodes(default_scenario.layout, default_cov, target=full_acc)
    assert again.selected == again.order
    assert len(again.selected) == 10


def test_select_single_node_at_sink():
    layout = NodeLayout(positions=((1.0, 1.0),), sink=(1.0, 1.0), node_ids=(7,))
    sel = select_nodes(layout, build_spatial_covariance(layout, FieldParams()), target=0.99)
    assert sel.selected == (7,)
    assert sel.accuracy[0] == pytest.approx(1.0, abs=1e-12)


def test_select_orders_by_sink_distance(default_scenario, default_cov):
    sel = select_nodes(default_scenario.layout, default_cov, count=6)
    assert sel.order == (2, 5, 4, 10, 7, 9, 3, 6, 1, 8)
    assert sorted(sel.selected) == [2, 4, 5, 7, 9, 10]


def test_select_six_of_ten_accuracy(default_scenario, default_cov):
    sel = select_nodes(default_scenario.layout, default_cov, count=10)
    acc6 = sel.accuracy[5]
    acc10 = sel.accuracy[9]
    assert acc6 >= 0.9 * acc10


def test_select_curve_non_decreasing_random_layouts():
    rng = np.random.default_rng(37)
    for _ in range(20):
        m = int(rng.integers(2, 11))
        positions, sink = random_layout(rng, m)
        layout = NodeLayout(positions=tuple(positions), sink=sink, node_ids=tuple(range(1, m + 1)))
        sel = select_nodes(layout, build_spatial_covariance(layout, FieldParams()), count=m)
        assert len(sel.accuracy) == m
        assert np.all(np.diff(sel.accuracy) >= -1e-12)


def test_select_target_unreachable(default_scenario, default_cov):
    with pytest.raises(TargetUnreachable):
        select_nodes(default_scenario.layout, default_cov, target=1.0)


def test_select_requires_exactly_one_mode(default_scenario, default_cov):
    with pytest.raises(ValueError):
        select_nodes(default_scenario.layout, default_cov)
    with pytest.raises(ValueError):
        select_nodes(default_scenario.layout, default_cov, target=0.5, count=3)


def test_select_rejects_a_covariance_of_another_layout(default_scenario, default_cov):
    with pytest.raises(DimensionMismatch):
        select_nodes(default_scenario.layout, default_cov.restrict(range(9)), count=3)


def test_select_greedy_bounded_by_exhaustive(default_scenario, default_cov):
    sel = select_nodes(default_scenario.layout, default_cov, count=10)
    best = best_accuracy_per_size(default_cov.ruu, default_cov.rdu, default_cov.sigma_d_sq)
    for size, acc in enumerate(sel.accuracy, start=1):
        assert acc <= best[size] + 1e-12


@pytest.mark.parametrize("per_node_sigma", [False, True])
def test_select_curve_matches_per_prefix_oracle(per_node_sigma):
    rng = np.random.default_rng(43 + per_node_sigma)
    for m, side in ((1, 4.0), (6, 4.0), (25, 5.0), (80, 8.0), (400, 12.0)):
        positions, sink = random_layout(rng, m, side=side)
        ids = tuple(int(i) for i in rng.permutation(m) + 1)
        if per_node_sigma:
            sigma_u = tuple(float(s) for s in rng.uniform(0.5, 2.0, m))
        else:
            sigma_u = float(rng.uniform(0.5, 2.0))
        params = FieldParams(
            theta=float(rng.uniform(0.8, 3.0)), sigma_u=sigma_u, sigma_d=float(rng.uniform(0.5, 2.0))
        )
        layout = NodeLayout(positions=tuple(positions), sink=sink, node_ids=ids)
        sel = select_nodes(layout, build_spatial_covariance(layout, params), count=m)
        order, expected = prefix_accuracy_curve(
            positions, sink, ids, sigma_u, params.theta, params.sigma_d
        )
        assert sel.order == order
        assert sel.accuracy.shape == (m,)
        assert np.max(np.abs(sel.accuracy - expected)) <= 1e-12, m


def per_prefix_failure(layout: NodeLayout, params: FieldParams) -> str | None:
    """The NotPositiveDefinite message of the first ranked prefix whose own
    Ruu fails to factor: the selection rule before the curve came from one
    factorization.  None when every prefix factors."""
    dist = layout.sink_distances()
    ranked = sorted(range(layout.size), key=lambda k: (dist[k], layout.node_ids[k]))
    cov = build_spatial_covariance(layout, params)
    for size in range(1, layout.size + 1):
        try:
            cholesky_factor(cov.restrict(ranked[:size]).ruu)
        except NotPositiveDefinite as exc:
            return str(exc)
    return None


def test_select_colocated_nodes_fail_typed_with_per_prefix_pivot(default_scenario):
    base = default_scenario.layout
    for copy, onto in ((0, 1), (7, 2), (9, 4), (3, 5)):
        positions = list(base.positions)
        positions[copy] = positions[onto]
        layout = NodeLayout(positions=tuple(positions), sink=base.sink, node_ids=base.node_ids)
        for theta in (0.5, 2.0, 6.0):
            params = FieldParams(theta=theta, sigma_u=1.7)
            expected = per_prefix_failure(layout, params)
            assert expected is not None
            with pytest.raises(NotPositiveDefinite) as err:
                select_nodes(layout, build_spatial_covariance(layout, params), count=layout.size)
            # The pair ties on sink distance, so the higher id ranks second.
            node = max(base.node_ids[copy], base.node_ids[onto])
            assert str(err.value) == f"covariance is degenerate at node {node}: {expected}"


@pytest.mark.parametrize(
    "delta, old_column, new_column",
    [(1e-13, 1, 1), (3e-12, 3, 1), (5e-11, 3, 1), (3e-10, 3, 3), (1e-8, 3, 3)],
)
def test_select_per_node_sigma_raises_exactly_when_per_prefix_rule_did(
    delta, old_column, new_column
):
    # Nodes 1 and 2 sit delta apart (their second pivot is about delta),
    # nodes 3 and 4 coincide, and node 5's sigma of 10 lifts the full-set
    # pivot floor to 1e-10 from the 1e-12 of every shorter prefix.  Both
    # rules raise; for a pivot between the two floors the one
    # factorization names column 1 where the per-prefix rule named 3.
    ids = (1, 2, 3, 4, 5)
    params = FieldParams(sigma_u=(1.0, 1.0, 1.0, 1.0, 10.0))
    positions = [(1.0, 0.0), (1.0, delta), (2.0, 0.0), (2.0, 0.0), (3.0, 0.0)]
    layout = NodeLayout(positions=tuple(positions), sink=(0.0, 0.0), node_ids=ids)
    assert f"at column {old_column} " in per_prefix_failure(layout, params)
    with pytest.raises(NotPositiveDefinite, match=f"at column {new_column} "):
        select_nodes(layout, build_spatial_covariance(layout, params), count=1)
    positions[3] = (2.0, 0.5)
    apart = NodeLayout(positions=tuple(positions), sink=(0.0, 0.0), node_ids=ids)
    assert (per_prefix_failure(apart, params) is None) == (delta > 1e-10)
    if delta > 1e-10:
        select_nodes(apart, build_spatial_covariance(apart, params), count=5)
    else:
        with pytest.raises(NotPositiveDefinite, match="at column 1 "):
            select_nodes(apart, build_spatial_covariance(apart, params), count=5)
