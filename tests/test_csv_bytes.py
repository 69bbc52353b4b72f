"""The CSV bytes of report tables, cell by cell against Python's own text:
every float cell is ``format(v, ".9g")`` and every integer cell ``str(v)``."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsnadapt import sim
from wsnadapt.sim import (
    OUTPUT_FILES,
    MaliciousSpec,
    RunReport,
    Table,
    default_scenario,
    plan,
    report_files,
    run_ada,
    run_detect,
    run_stdp,
    sweep,
)


def csv_bytes(*columns, absent=None) -> bytes:
    """The data rows of a one-file report holding ``columns``."""
    header = tuple(f"c{k}" for k in range(len(columns)))
    table = Table(header, columns, absent=absent or {})
    ((_, body),) = report_files(RunReport({"t.csv": table}, {})).values()
    assert body is table  # a table iterates its own CSV chunks
    return b"".join(body)


def expected(values, text=lambda v: format(v, ".9g")) -> bytes:
    return "".join(text(v) + "\n" for v in values).encode()


def near(value: float, steps: int = 2) -> list[float]:
    """``value`` and its neighbouring doubles, ``steps`` each way."""
    out, up, down = [value], value, value
    for _ in range(steps):
        up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
        out += [up, down]
    return out


ADVERSARIAL = [
    0.0,
    -0.0,
    5e-324,
    2.225073858507201e-308,  # largest subnormal
    2.2250738585072014e-308,  # smallest normal
    1e-310,
    1.7976931348623157e308,
    *(10.0**k for k in range(-20, 33)),
    *near(1.0),
    *near(1e22),
    *near(1e23),
    # The fixed/scientific switch at 1e-4 (exponent -5 against -4), also
    # by a carry into the next decade.
    *near(1e-4),
    *near(1e-5),
    9.99999999e-5,
    9.999999995e-5,
    9.9999999949e-5,
    9.999999996e-5,
    # ... and at 1e9 (exponent 8 against 9).
    *near(1e9),
    *near(1e8),
    999999999.0,
    999999999.4,
    *near(999999999.5),
    999999999.7,
    *near(99999999.95),
    *near(9999999995.0),
    9.9999999995,
    0.99999999995,
    # Exact ties at the ninth digit (half to even) and their neighbours.
    *near(100000000.5),
    *near(123456789.5),
    *near(123456788.5),
    *near(12345678.25),
    *near(1.5),
    # Decimal ties that are not exact doubles: the stored value decides.
    1.234567885,
    1.234567895e-5,
    0.000123456785,
    2.5000000050,
    # Many digits and the exponent range's edges.
    0.1,
    0.2,
    1 / 3,
    2 / 3,
    math.pi,
    math.e,
    1e-14,
    1e-15,
    9.999999999e30,
    1e31,
    123456789012345678.0,
]


def test_adversarial_floats_match_format():
    x = np.array(ADVERSARIAL + [-v for v in ADVERSARIAL])
    assert csv_bytes(x) == expected(x.tolist())


def test_a_million_random_floats_match_format():
    rng = np.random.default_rng(20261018)
    n = 500_000
    # Log-uniform over and past the exponents that skip the fallback ...
    spread = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-17, 34, n)
    # ... and uniform bit patterns, which reach every finite exponent.
    bits = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False).view(np.float64)
    x = np.concatenate([spread, bits[np.isfinite(bits)]])
    assert x.size >= 999_000
    assert csv_bytes(x) == expected(x.tolist())


@settings(max_examples=300)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_any_finite_float_matches_format(values):
    assert csv_bytes(np.array(values)) == expected(values)


INTS = [0, 1, -1, 9, 10, -10, 9999, 10000, -10000, 99999999, 100000000, 2**31, 2**32 + 7,
        -(2**32 + 7), 2**63 - 1, -(2**63)]


@pytest.mark.parametrize(
    "values, dtype",
    [(INTS, np.int64), ([0, 2**64 - 1, 10**19], np.uint64), ([-128, 127, 0, 1], np.int8)],
    ids=["int64", "uint64", "int8"],
)
def test_integers_are_their_digits(values, dtype):
    assert csv_bytes(np.array(values, dtype=dtype)) == expected(values, str)


def test_absent_cells_are_empty():
    floats = np.array([0.25, 0.0, -3.5, 1e300, 7.0])
    ints = np.array([1, -20, 2**40, 5, 0])
    text = np.array([b"a", b"bb", b"", b"dddd", b"e"])
    absent = {
        0: np.array([False, True, False, True, False]),
        1: np.array([True, False, False, False, True]),
        2: np.array([False, False, False, True, False]),
    }
    assert csv_bytes(floats, ints, text, absent=absent) == (
        b"0.25,,a\n,-20,bb\n-3.5,1099511627776,\n,5,\n7,,e\n"
    )
    assert text.tolist() == [b"a", b"bb", b"", b"dddd", b"e"]  # the table is not written


def test_rows_split_into_chunks_join_to_the_same_bytes(monkeypatch):
    x = np.linspace(-2.0, 3.0, 23)
    ids = np.arange(23) * 37
    whole = csv_bytes(x, ids)
    monkeypatch.setattr(sim, "CHUNK_ROWS", 5)
    table = Table(("x", "id"), (x, ids))
    ((_, body),) = report_files(RunReport({"t.csv": table}, {})).values()
    chunks = list(body)
    assert [chunk.count(b"\n") for chunk in chunks] == [5, 5, 5, 5, 3]
    assert len(body) == 23 and b"".join(chunks) == whole


def test_coded_cells_print_their_names(monkeypatch):
    names = np.array([b"", b"RAW", b"CLIENT_PREDICTING", b"A;B"])
    codes = np.array([1, 0, 3, 3, 1, 2, 0], dtype=np.uint8)
    absent = np.array([False, False, False, True, False, False, False])
    table = Table(("id", "name"), (np.arange(7, dtype=np.int32), codes), {1: absent}, {1: names})
    whole = b"0,RAW\n1,\n2,A;B\n3,\n4,RAW\n5,CLIENT_PREDICTING\n6,\n"
    ((_, body),) = report_files(RunReport({"t.csv": table}, {})).values()
    assert b"".join(body) == whole
    # A chunk's slots are as wide as the longest name it uses.
    monkeypatch.setattr(sim, "CHUNK_ROWS", 2)
    assert [sim._label_cells(codes[k : k + 2], names).shape[1] for k in range(0, 7, 2)] == [
        3, 3, 17, 1
    ]
    ((_, body),) = report_files(RunReport({"t.csv": table}, {})).values()
    chunks = list(body)
    assert len(chunks) == 4 and b"".join(chunks) == whole


def cell_text(table: Table, c: int, k: int) -> str:
    """Python's own text of cell (row ``k``, column ``c``)."""
    value = table.columns[c][k]
    if c in table.absent and table.absent[c][k]:
        return ""
    if c in table.labels:
        return table.labels[c][value].decode()
    kind = table.columns[c].dtype.kind
    return value.decode() if kind == "S" else format(value, ".9g") if kind == "f" else str(value)


def chunked_bytes(table: Table, chunk_rows: int) -> bytes:
    """The table's rows encoded ``chunk_rows`` at a time, each chunk
    checked against Python's text of its cells."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "CHUNK_ROWS", chunk_rows)
        chunks = list(table)
    for start, chunk in zip(range(0, len(table), chunk_rows), chunks):
        rows = range(start, min(start + chunk_rows, len(table)))
        assert chunk == "".join(
            ",".join(cell_text(table, c, k) for c in range(len(table.columns))) + "\n"
            for k in rows
        ).encode()
    return b"".join(chunks)


NAMES = np.array([b"", b"RAW", b"CLIENT_PREDICTING", b"A;B"])
INTEGERS = {np.int8: 2**7, np.int32: 2**31, np.int64: 2**63, np.uint64: 2**64}


@st.composite
def tables(draw):
    """A table of 1-6 columns of mixed kinds over 1-12 rows, each column
    with or without absent cells, and a chunk size of 1-5 rows."""
    n = draw(st.integers(1, 12))
    header, columns, absent, labels = [], [], {}, {}
    kinds = [*INTEGERS, "float", "coded", "bytes"]
    kinds = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=6))
    for c, kind in enumerate(kinds):
        if kind in INTEGERS:
            # Often within the small-integer range, which has its own path.
            top = INTEGERS[kind]
            low = 0 if kind == np.uint64 else -top
            values = st.one_of(st.integers(0, min(10_001, top - 1)), st.integers(low, top - 1))
            column = np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=kind)
        elif kind == "float":
            floats = st.floats(allow_nan=False, allow_infinity=False)
            column = np.array(draw(st.lists(floats, min_size=n, max_size=n)))
        elif kind == "coded":
            codes = st.integers(0, len(NAMES) - 1)
            column = np.array(draw(st.lists(codes, min_size=n, max_size=n)), dtype=np.uint8)
            labels[c] = NAMES
        else:
            text = st.binary(max_size=5).map(lambda b: bytes(x % 26 + 97 for x in b))
            column = np.array(draw(st.lists(text, min_size=n, max_size=n)), dtype="S5")
        if draw(st.booleans()):
            absent[c] = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        header.append(f"c{c}")
        columns.append(column)
    return Table(tuple(header), tuple(columns), absent, labels), draw(st.integers(1, 5))


@settings(max_examples=100)
@given(tables())
def test_any_table_matches_its_cells_text(case):
    table, chunk_rows = case
    assert chunked_bytes(table, chunk_rows) == chunked_bytes(table, len(table))


@pytest.mark.parametrize(
    "columns, absent, labels",
    [
        # Both sides of the small-integer tables' range in one chunk, then
        # each power of ten in them.
        (
            [np.array([9999, 10000, 0, 10, 100, 1000], np.int32),
             np.array([10000, 9999, 7, 1, 9, 99], np.uint64)],
            {},
            {},
        ),
        ([np.array([-1, -9, 0, 5], np.int8), np.array([-3, 2, 10, -10], np.int64)], {}, {}),
        ([np.array([2**63 - 1, 0, 5], np.int64)], {}, {}),
        # Silent rounds: a float and a coded column absent in a whole chunk.
        (
            [np.arange(5, dtype=np.int32), np.array([0.0, 0.0, 0.0, 2.5, -1e-7]),
             np.array([1, 2, 3, 3, 0], np.uint8)],
            {1: np.array([True, True, True, False, True]), 2: np.array([True] * 3 + [False] * 2)},
            {2: NAMES},
        ),
    ],
    ids=["small_int_edge", "small_negatives", "int64_max_beside_0", "absent_chunk"],
)
def test_integer_edges_and_absent_chunks_match_their_cells_text(columns, absent, labels):
    table = Table(tuple(f"c{c}" for c in range(len(columns))), tuple(columns), absent, labels)
    whole = chunked_bytes(table, len(table))
    assert chunked_bytes(table, 3) == whole


REPORTS = {
    "ada": lambda: run_ada(plan(default_scenario(), "ada")),
    "stdp": lambda: run_stdp(plan(default_scenario(num_blocks=40))),
    "detect": lambda: run_detect(
        plan(
            default_scenario(num_blocks=60, malicious=MaliciousSpec(node_ids=(5, 9), scale=6.0)),
            "detect",
        )
    ),
    "sweep": lambda: sweep(
        plan(default_scenario(num_blocks=40), "sweep", axis="n_block", values=[4, 5])
    ),
}


@pytest.mark.parametrize("kind", sorted(REPORTS))
def test_every_table_row_is_one_body_row(kind):
    report = REPORTS[kind]()
    files = report_files(report)
    assert files.keys() == report.files.keys() and files.keys() <= OUTPUT_FILES
    assert sum(len(body) for _, body in files.values()) == sum(
        len(table) for table in report.files.values()
    )
    for name, (header, body) in files.items():
        table = report.files[name]
        assert header == table.header and body is table
        text = b"".join(body).decode()
        lines = text.splitlines()
        assert len(body) == len(table) == len(lines) == text.count("\n")
        assert lines[0].split(",") == [
            "" if c in table.absent and table.absent[c][0]
            else table.labels[c][column[0]].decode() if c in table.labels
            else column[0].decode() if column.dtype.kind == "S"
            else format(column[0], ".9g") if column.dtype.kind == "f"
            else str(column[0])
            for c, column in enumerate(table.columns)
        ]
