import numpy as np
import pytest

from oracles import pearson, random_layout
from wsnadapt.errors import (
    CsvFormatError,
    InvalidTheta,
    NotPositiveDefinite,
    UnknownNode,
)
from wsnadapt.fieldgen import (
    FieldParams,
    NodeLayout,
    awgn_channel,
    build_spatial_covariance,
    correlation_coefficient,
    generate_stream,
    ingest_csv,
    inject_malicious,
)
from wsnadapt.numerics import cholesky_factor
from wsnadapt.sim import default_layout


def node_series(stream, node_id):
    """One node's samples as a single chronological vector."""
    (row,) = stream.rows_of([node_id])
    return stream.blocks[row].ravel()


def layout_two_nodes():
    return NodeLayout(positions=((0.0, 0.0), (2.0, 0.0)), sink=(0.0, 0.0), node_ids=(1, 2))


def test_correlation_limits():
    assert correlation_coefficient(0.0, 2.0) == 1.0
    assert correlation_coefficient(2.0, 2.0) == pytest.approx(np.exp(-1.0), abs=1e-12)
    assert correlation_coefficient(1000.0, 2.0) < 1e-200


def test_correlation_invalid_theta():
    with pytest.raises(InvalidTheta):
        correlation_coefficient(1.0, 0.0)
    with pytest.raises(InvalidTheta):
        FieldParams(theta=-1.0)


def test_correlation_monotone():
    rng = np.random.default_rng(0)
    for _ in range(200):
        d1, d2 = sorted(rng.uniform(0.0, 10.0, 2))
        theta = rng.uniform(0.1, 5.0)
        if d1 < d2:
            assert correlation_coefficient(d1, theta) > correlation_coefficient(d2, theta)


def test_covariance_single_node_at_sink():
    layout = NodeLayout(positions=((1.0, 1.0),), sink=(1.0, 1.0), node_ids=(1,))
    cov = build_spatial_covariance(layout, FieldParams(theta=2.0))
    assert cov.ruu[0, 0] == 1.0
    assert cov.rdu[0] == 1.0


def test_covariance_two_node_analytic():
    cov = build_spatial_covariance(layout_two_nodes(), FieldParams(theta=2.0))
    rho = np.exp(-1.0)
    assert np.allclose(cov.ruu, [[1.0, rho], [rho, 1.0]], atol=1e-15)
    assert np.allclose(cov.rdu, [1.0, rho], atol=1e-15)


def test_covariance_matches_scalar_recomputation():
    layout = default_layout()
    params = FieldParams(theta=2.0, sigma_u=tuple(0.5 + 0.1 * i for i in range(10)), sigma_d=1.3)
    cov = build_spatial_covariance(layout, params)
    sig = params.sigma_vector(10)
    for i in range(10):
        for j in range(10):
            dij = np.hypot(
                layout.positions[i][0] - layout.positions[j][0],
                layout.positions[i][1] - layout.positions[j][1],
            )
            assert cov.ruu[i, j] == pytest.approx(sig[i] * sig[j] * np.exp(-dij / 2.0), rel=1e-14)
        dsink = np.hypot(layout.positions[i][0] - 2.0, layout.positions[i][1] - 2.0)
        assert cov.rdu[i] == pytest.approx(1.3 * sig[i] * np.exp(-dsink / 2.0), rel=1e-14)


def test_covariance_diagonal_and_symmetry_exact():
    layout = default_layout()
    sig = tuple(0.7 + 0.05 * i for i in range(10))
    cov = build_spatial_covariance(layout, FieldParams(sigma_u=sig))
    assert np.all(np.diag(cov.ruu) == np.asarray(sig) ** 2)
    assert np.array_equal(cov.ruu, cov.ruu.T)


def test_covariance_spd_for_distinct_positions():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = int(rng.integers(2, 11))
        positions, sink = random_layout(rng, m)
        layout = NodeLayout(positions=tuple(positions), sink=sink, node_ids=tuple(range(1, m + 1)))
        cov = build_spatial_covariance(layout, FieldParams(theta=rng.uniform(0.5, 4.0)))
        cholesky_factor(cov.ruu)  # must not raise


def test_generate_stream_deterministic():
    layout = default_layout()
    params = FieldParams()
    one = generate_stream(layout, params, 5, 10, seed=99)
    two = generate_stream(layout, params, 5, 10, seed=99)
    assert np.array_equal(one.blocks, two.blocks)
    assert np.array_equal(one.desired, two.desired)


def test_generate_stream_perfect_correlation_limit():
    # theta this large leaves the covariance numerically rank-1, which is
    # exactly what the explicit jitter flag is for
    layout = default_layout()
    params = FieldParams(theta=1e12, noise_var=0.0)
    with pytest.raises(NotPositiveDefinite):
        generate_stream(layout, params, 5, 1, seed=1)
    stream = generate_stream(layout, params, 5, 1, seed=1, jitter=True)
    rows = stream.blocks[:, 0]
    assert np.max(np.abs(rows - rows[0])) < 1e-4


def test_generate_stream_empirical_cross_correlation():
    layout = layout_two_nodes()
    params = FieldParams(theta=2.0, temporal_phi=0.0)
    stream = generate_stream(layout, params, 5, 2000, seed=4)
    x = node_series(stream, 1)
    y = node_series(stream, 2)
    assert abs(pearson(x, y) - np.exp(-1.0)) < 0.05


def test_generate_stream_lag1_autocorrelation_without_phi():
    layout = default_layout()
    stream = generate_stream(layout, FieldParams(temporal_phi=0.0), 5, 2000, seed=8)
    x = node_series(stream, 1)
    assert abs(pearson(x[:-1], x[1:])) < 0.05


def test_generate_stream_degenerate_needs_jitter():
    layout = NodeLayout(
        positions=((1.0, 1.0), (1.0, 1.0)), sink=(0.0, 0.0), node_ids=(1, 2)
    )
    with pytest.raises(NotPositiveDefinite):
        generate_stream(layout, FieldParams(), 4, 2, seed=0)
    stream = generate_stream(layout, FieldParams(), 4, 2, seed=0, jitter=True)
    assert len(stream.blocks[0]) == 2


def test_inject_malicious_variance_ratio():
    # nominal sigma^2 is 1; AR(1) autocorrelation shrinks the effective
    # sample count, so use a long stream for the +-20% band
    layout = default_layout()
    stream = generate_stream(layout, FieldParams(), 5, 2000, seed=21)
    tainted = inject_malicious(stream, {5, 9}, scale=6.0, seed=21)
    for node_id in (5, 9):
        dirty = node_series(tainted, node_id)
        assert 36.0 * 0.8 <= dirty.var() <= 36.0 * 1.2
    for node_id in (1, 2, 3, 4, 6, 7, 8, 10):
        (row,) = stream.rows_of([node_id])
        assert np.array_equal(stream.blocks[row], tainted.blocks[row])
        assert np.array_equal(stream.desired[row], tainted.desired[row])


def test_inject_malicious_rejects_bad_args():
    stream = generate_stream(default_layout(), FieldParams(), 4, 2, seed=0)
    with pytest.raises(ValueError):
        inject_malicious(stream, {5}, scale=1.0, seed=0)
    with pytest.raises(UnknownNode):
        inject_malicious(stream, {77}, scale=6.0, seed=0)


def test_inject_malicious_empty_set_is_identity():
    stream = generate_stream(default_layout(), FieldParams(), 4, 3, seed=2)
    same = inject_malicious(stream, set(), scale=6.0, seed=2)
    assert np.array_equal(stream.blocks, same.blocks)
    assert np.array_equal(stream.desired, same.desired)


def test_awgn_off_and_vanishing():
    stream = generate_stream(default_layout(), FieldParams(), 5, 1, seed=3)
    samples, desired = stream.blocks[:1, 0], stream.desired[:1, 0]
    off = awgn_channel(samples, desired, [1], 0, None, seed=3)
    assert off[0] is samples and off[1] is desired
    quiet_samples, quiet_desired = awgn_channel(samples, desired, [1], 0, 300.0, seed=3)
    assert np.max(np.abs(quiet_samples - samples)) < 1e-10
    assert abs(quiet_desired[0] - desired[0]) < 1e-10


def test_awgn_zero_db_power_ratio():
    stream = generate_stream(default_layout(), FieldParams(), 5, 2000, seed=6)
    signal = suma = 0.0
    for b, u in enumerate(stream.blocks[0]):
        noisy, _ = awgn_channel(u[None], stream.desired[0, b : b + 1], [1], b, 0.0, seed=6)
        signal += float(u @ u)
        diff = noisy[0] - u
        suma += float(diff @ diff)
    assert 0.9 <= suma / signal <= 1.1


def csv_text(rows):
    return "timestamp,node_id,value\n" + "\n".join(rows) + "\n"


def test_ingest_csv_blocks_in_timestamp_order(tmp_path):
    path = tmp_path / "data.csv"
    rows = [f"{t},1,{float(t)}" for t in (3, 1, 2, 0, 5, 4)]
    rows += [f"{t},2,{float(10 + t)}" for t in range(6)]
    path.write_text(csv_text(rows))
    stream = ingest_csv(path, 3, FieldParams(noise_var=0.0), seed=0)
    assert stream.num_blocks == 2
    assert stream.node_ids == (1, 2)
    assert np.array_equal(stream.blocks[0][0], [0.0, 1.0, 2.0])
    assert np.array_equal(stream.blocks[0][1], [3.0, 4.0, 5.0])
    w0 = 1.0 / np.sqrt(3.0)
    assert stream.desired[1][0] == pytest.approx((10 + 11 + 12) * w0)


def test_ingest_csv_malformed_rows(tmp_path):
    path = tmp_path / "bad_header.csv"
    path.write_text("time,node,value\n1,1,1\n")
    with pytest.raises(CsvFormatError, match="line 1"):
        ingest_csv(path, 2, FieldParams(), seed=0)

    path = tmp_path / "bad_value.csv"
    path.write_text(csv_text(["0,1,1.5", "1,1,oops"]))
    with pytest.raises(CsvFormatError, match="line 3"):
        ingest_csv(path, 2, FieldParams(), seed=0)

    path = tmp_path / "bad_cols.csv"
    path.write_text(csv_text(["0,1"]))
    with pytest.raises(CsvFormatError, match="line 2"):
        ingest_csv(path, 2, FieldParams(), seed=0)

    path = tmp_path / "negative_id.csv"
    path.write_text(csv_text(["0,1,1.0", "0,-4,1.0"]))
    with pytest.raises(CsvFormatError, match="line 3: negative node id -4"):
        ingest_csv(path, 1, FieldParams(), seed=0)


def test_ingest_csv_needs_full_block(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text(csv_text(["0,1,1.0", "1,1,2.0"]))
    with pytest.raises(CsvFormatError):
        ingest_csv(path, 5, FieldParams(), seed=0)
