import numpy as np
import pytest

from oracles import awgn_channel_per_node, pearson, random_layout
from wsnadapt.errors import (
    CsvFormatError,
    DimensionMismatch,
    InvalidTheta,
    NonFinite,
    NotPositiveDefinite,
    UnknownNode,
)
from wsnadapt.fieldgen import (
    ROLE_CHANNEL,
    ROLE_MALICIOUS,
    ROLE_MEASURE,
    ROLE_PROTOCOL,
    FieldParams,
    NodeLayout,
    Stream,
    awgn_channel,
    build_spatial_covariance,
    generate_stream,
    ingest_csv,
    inject_malicious,
    node_draws,
    substream,
)
from wsnadapt.numerics import cholesky_factor
from wsnadapt.sim import default_layout


def node_series(stream, node_id):
    """One node's samples as a single chronological vector."""
    (row,) = stream.rows_of([node_id])
    return stream.blocks[row].ravel()


def layout_two_nodes():
    return NodeLayout(positions=((0.0, 0.0), (2.0, 0.0)), sink=(0.0, 0.0), node_ids=(1, 2))


def test_field_params_reject_non_positive_theta():
    for theta in (0.0, -1.0):
        with pytest.raises(InvalidTheta):
            FieldParams(theta=theta)


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
    # theta this large leaves the covariance numerically rank-1
    layout = default_layout()
    params = FieldParams(theta=1e12, noise_var=0.0)
    with pytest.raises(NotPositiveDefinite):
        generate_stream(layout, params, 5, 1, seed=1)


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


def test_generate_stream_co_located_nodes_are_not_positive_definite():
    layout = NodeLayout(
        positions=((1.0, 1.0), (1.0, 1.0)), sink=(0.0, 0.0), node_ids=(1, 2)
    )
    with pytest.raises(NotPositiveDefinite):
        generate_stream(layout, FieldParams(), 4, 2, seed=0)


@pytest.mark.parametrize("role", [ROLE_MEASURE, ROLE_MALICIOUS, ROLE_CHANNEL, ROLE_PROTOCOL])
@pytest.mark.parametrize("shape", [(7,), (3, 4)])
def test_node_draws_reads_each_nodes_own_substream(role, shape):
    ids = [9, 2, 2**32, 2**32 + 5, 2**63 - 1]
    for seed in (0, 11, 2**40):
        draws = node_draws(seed, role, ids, *shape)
        assert draws.shape == (len(ids), *shape)
        for row, node_id in zip(draws, ids):
            expected = substream(seed, role, node_id).standard_normal(shape)
            assert row.tobytes() == expected.tobytes()
    assert node_draws(3, role, [], *shape).shape == (0, *shape)


@pytest.mark.parametrize("std", [0.0, 0.1, 0.6])
def test_scaled_node_draws_equal_generator_normal(std):
    (row,) = node_draws(5, ROLE_MEASURE, [4], 300)
    expected = substream(5, ROLE_MEASURE, 4).normal(0.0, std, 300)
    assert (std * row + 0.0).tobytes() == expected.tobytes()


def test_stream_shape_is_read_off_its_blocks():
    stream = generate_stream(default_layout(), FieldParams(), 5, 3, seed=4)
    assert (stream.n, stream.num_blocks) == (stream.blocks.shape[2], stream.blocks.shape[1])
    assert (stream.n, stream.num_blocks) == (5, 3)
    with pytest.raises(DimensionMismatch):
        Stream(stream.node_ids, stream.blocks, stream.desired[:, :2])
    with pytest.raises(DimensionMismatch):
        Stream(stream.node_ids, stream.blocks[:, :2], stream.desired)


def test_stream_names_its_first_non_finite_entry():
    stream = generate_stream(default_layout(), FieldParams(), 5, 6, seed=4)
    blocks, desired = stream.blocks.copy(), stream.desired.copy()
    blocks[7, 4, 2] = np.inf
    desired[3, 5] = np.nan
    with pytest.raises(NonFinite, match=r"at node 4, block 5$"):
        Stream(stream.node_ids, blocks, desired)
    with pytest.raises(NonFinite, match=r"at node 8, block 4$"):
        Stream(stream.node_ids, blocks, stream.desired)


def test_stream_names_its_first_pair_of_ids_out_of_order():
    stream = generate_stream(default_layout(), FieldParams(), 5, 3, seed=4)
    ids = (1, 2, 9, 4, 5, 6, 7, 8, 3, 10)
    with pytest.raises(DimensionMismatch, match=r"got 9 before 4$"):
        Stream(ids, stream.blocks, stream.desired)
    with pytest.raises(DimensionMismatch, match=r"got 2 before 2$"):
        Stream((1, 2, 2), stream.blocks[:3], stream.desired[:3])


def test_inject_malicious_scales_by_the_sigma_of_the_layout_position():
    # Ids out of layout order: the stream's rows ascend by id, the sigmas
    # follow the layout.
    layout = NodeLayout(
        positions=((0.3, 0.1), (2.0, 1.0), (1.1, 3.2), (3.0, 2.5), (0.5, 2.2)),
        sink=(1.5, 1.5),
        node_ids=(9, 3, 14, 1, 6),
    )
    sigma_u = (0.5, 1.7, 0.9, 2.4, 1.2)
    stream = generate_stream(layout, FieldParams(), 5, 40, seed=7)
    unit = inject_malicious(stream, layout, FieldParams(), (14, 3), 6.0, seed=7)
    scaled = inject_malicious(stream, layout, FieldParams(sigma_u=sigma_u), (14, 3), 6.0, seed=7)
    for node_id, sigma in ((14, 0.9), (3, 1.7)):
        assert np.allclose(node_series(scaled, node_id), sigma * node_series(unit, node_id))


def test_inject_malicious_variance_ratio():
    # nominal sigma^2 is 1; AR(1) autocorrelation shrinks the effective
    # sample count, so use a long stream for the +-20% band
    layout = default_layout()
    stream = generate_stream(layout, FieldParams(), 5, 2000, seed=21)
    tainted = inject_malicious(stream, layout, FieldParams(), {5, 9}, scale=6.0, seed=21)
    for node_id in (5, 9):
        dirty = node_series(tainted, node_id)
        assert 36.0 * 0.8 <= dirty.var() <= 36.0 * 1.2
    for node_id in (1, 2, 3, 4, 6, 7, 8, 10):
        (row,) = stream.rows_of([node_id])
        assert np.array_equal(stream.blocks[row], tainted.blocks[row])
        assert np.array_equal(stream.desired[row], tainted.desired[row])


def test_inject_malicious_rejects_bad_args():
    layout = default_layout()
    stream = generate_stream(layout, FieldParams(), 4, 2, seed=0)
    with pytest.raises(ValueError):
        inject_malicious(stream, layout, FieldParams(), {5}, scale=1.0, seed=0)
    with pytest.raises(UnknownNode):
        inject_malicious(stream, layout, FieldParams(), {77}, scale=6.0, seed=0)
    with pytest.raises(UnknownNode, match=r"nodes \[5\] not in layout"):
        inject_malicious(stream, layout_two_nodes(), FieldParams(), {5}, scale=6.0, seed=0)


def test_inject_malicious_empty_set_is_identity():
    layout = default_layout()
    stream = generate_stream(layout, FieldParams(), 4, 3, seed=2)
    same = inject_malicious(stream, layout, FieldParams(), set(), scale=6.0, seed=2)
    assert np.array_equal(stream.blocks, same.blocks)
    assert np.array_equal(stream.desired, same.desired)


def test_awgn_vanishing_at_high_snr():
    stream = generate_stream(default_layout(), FieldParams(), 5, 1, seed=3)
    blocks, desired = stream.blocks[:1], stream.desired[:1]
    noise = node_draws(3, ROLE_CHANNEL, [1], 1, 5 + 1)
    quiet_blocks, quiet_desired = awgn_channel(blocks, desired, noise, 300.0)
    assert np.max(np.abs(quiet_blocks - blocks)) < 1e-10
    assert abs(quiet_desired[0, 0] - desired[0, 0]) < 1e-10


def test_awgn_zero_db_power_ratio():
    stream = generate_stream(default_layout(), FieldParams(), 5, 2000, seed=6)
    blocks = stream.blocks[:1]
    noise = node_draws(6, ROLE_CHANNEL, [1], 2000, 5 + 1)
    noisy, _ = awgn_channel(blocks, stream.desired[:1], noise, 0.0)
    signal = suma = 0.0
    for u, v in zip(blocks[0], noisy[0]):
        signal += float(u @ u)
        diff = v - u
        suma += float(diff @ diff)
    assert 0.9 <= suma / signal <= 1.1


def test_awgn_channel_matches_per_node_generators():
    rng = np.random.default_rng(67)
    seeds = [0, 3, 2**32 + 9, 2**64, 2**64 + 7]
    id_pool = np.array([1, 2, 3, 5, 8, 21, 2**32, 2**32 + 1, 2**33, 77, 99, 2**63 - 1])
    for trial in range(120):
        m = int(rng.integers(1, 12))
        num_blocks = int(rng.integers(1, 7))
        n = int(rng.choice([1, 2, 5, 9, 40]))
        ids = rng.permutation(id_pool)[:m].tolist()
        seed = seeds[rng.integers(len(seeds))]
        blocks = rng.normal(size=(m, num_blocks, n)) * rng.uniform(0.01, 10.0)
        blocks[rng.uniform(size=(m, num_blocks)) < 0.2] = rng.choice([0.0, -0.0])  # zero power
        desired = rng.normal(size=(m, num_blocks))
        snr_db = float(rng.uniform(-20.0, 45.0))
        noise = node_draws(seed, ROLE_CHANNEL, ids, num_blocks, n + 1)
        got = awgn_channel(blocks, desired, noise, snr_db)
        expected = awgn_channel_per_node(blocks, desired, ids, snr_db, seed, ROLE_CHANNEL)
        assert got[0].tobytes() == expected[0].tobytes(), trial
        assert got[1].tobytes() == expected[1].tobytes(), trial


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
