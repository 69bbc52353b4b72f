import numpy as np
import pytest

from wsnadapt.errors import DimensionMismatch, InsufficientHistory
from wsnadapt.malicious import (
    Label,
    WeightHistory,
    classify,
    histories_from_snapshots,
    weight_variance,
)

# Reference tracked-weight table: five snapshots per node and the variance /
# label rows (population variance reproduces the printed values).
TABLE_WEIGHTS = {
    2: (0.0232, 0.0236, 0.0230, 0.0240, 0.0238),
    4: (0.0264, 0.0248, 0.0302, 0.0242, 0.0250),
    5: (0.1390, 0.1429, 0.1484, 0.1500, 0.1561),
    7: (0.0229, 0.0225, 0.0207, 0.0214, 0.024),
    9: (0.1493, 0.1520, 0.1551, 0.1575, 0.1609),
    10: (0.0253, 0.0242, 0.0253, 0.0236, 0.0230),
}
TABLE_VARIANCES = {
    2: 1.3760e-07,
    4: 4.6816e-06,
    5: 3.4838e-05,
    7: 1.6296e-06,
    9: 1.6538e-05,
    10: 8.3760e-07,
}
TABLE_LABELS = {
    2: Label.NORMAL,
    4: Label.NORMAL,
    5: Label.MALICIOUS,
    7: Label.NORMAL,
    9: Label.MALICIOUS,
    10: Label.NORMAL,
}


def scalar_history(node_id, values):
    return WeightHistory(node_id=node_id, snapshots=tuple(np.array([v]) for v in values))


def test_identical_snapshots_zero_variance():
    hist = WeightHistory(node_id=1, snapshots=(np.ones(5),) * 4)
    assert weight_variance(hist) == 0.0


def test_variance_needs_two_snapshots():
    with pytest.raises(InsufficientHistory):
        weight_variance(WeightHistory(node_id=1, snapshots=(np.ones(5),)))


def test_snapshots_must_share_length():
    with pytest.raises(DimensionMismatch):
        WeightHistory(node_id=1, snapshots=(np.ones(5), np.ones(4)))


def test_table_variances_nodes_2_and_5():
    assert weight_variance(scalar_history(2, TABLE_WEIGHTS[2])) == pytest.approx(
        TABLE_VARIANCES[2], abs=1e-10
    )
    # the printed node-5 value carries 5 significant digits, hence 1e-9
    assert weight_variance(scalar_history(5, TABLE_WEIGHTS[5])) == pytest.approx(
        TABLE_VARIANCES[5], abs=1e-9
    )


def test_pooled_variance_covers_vector_snapshots():
    # pooling all scalar entries makes the 5-scalar and 1-vector readings agree
    values = TABLE_WEIGHTS[2]
    as_scalars = scalar_history(2, values)
    as_vectors = WeightHistory(node_id=2, snapshots=(np.array(values), np.array(values)))
    assert weight_variance(as_vectors) == pytest.approx(weight_variance(as_scalars), rel=1e-12)
    # one (k, n) array per node gives the bits of the k vectors
    as_array = WeightHistory(node_id=2, snapshots=np.array([values, values]))
    assert weight_variance(as_array) == weight_variance(as_vectors)


def test_scale_equivariance():
    rng = np.random.default_rng(3)
    snaps = {i: [rng.normal(size=5) for _ in range(6)] for i in range(1, 7)}
    snaps[4] = [s * 30.0 for s in snaps[4]]  # one clear outlier
    base = {i: weight_variance(h) for i, h in histories_from_snapshots(snaps).items()}
    scaled_snaps = {i: [s * 3.0 for s in ss] for i, ss in snaps.items()}
    scaled = {i: weight_variance(h) for i, h in histories_from_snapshots(scaled_snaps).items()}
    for i in base:
        assert scaled[i] == pytest.approx(9.0 * base[i], rel=1e-12)
    assert classify(base).labels == classify(scaled).labels


def test_permutation_invariance():
    values = dict(TABLE_VARIANCES)
    forward = classify(values)
    backward = classify(dict(reversed(list(values.items()))))
    assert forward.labels == backward.labels
    assert forward.threshold == backward.threshold


def test_classify_all_equal_is_all_normal():
    report = classify({i: 2.5e-6 for i in range(1, 8)})
    assert all(label is Label.NORMAL for label in report.labels.values())


def test_classify_single_outlier():
    values = {i: 1e-6 for i in range(1, 10)}
    values[6] = 1e-4
    report = classify(values)
    assert report.labels[6] is Label.MALICIOUS
    assert sum(label is Label.MALICIOUS for label in report.labels.values()) == 1


def test_classify_table_with_default_kappa():
    report = classify(TABLE_VARIANCES, kappa=5.0)
    assert report.labels == TABLE_LABELS
    assert report.threshold == pytest.approx(5 * 3.1556e-06, rel=1e-9)


def test_classify_table_stable_over_kappa_range():
    # node 9 sits at 5.24x the median, so labels hold up to that multiple
    for kappa in np.linspace(2.0, 5.2, 17):
        assert classify(TABLE_VARIANCES, kappa=float(kappa)).labels == TABLE_LABELS


def test_classify_argument_validation():
    with pytest.raises(ValueError):
        classify({1: 1.0})
    with pytest.raises(ValueError):
        classify(TABLE_VARIANCES, kappa=1.0)
