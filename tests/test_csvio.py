"""The CSV reader's round trip with the CSV writer, and its optional header."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bore_lab.csvio import read_csv, write_csv

# Values %.17g must carry exactly: signed zero, subnormals, the extremes.
EDGES = [-0.0, 5e-324, -5e-324, 2.5e-310, 1e308, -1e308, 1.7976931348623157e308]
FINITE = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def tables(draw):
    """Finite columns of one length, the first strictly increasing."""
    first = sorted(draw(st.lists(FINITE, min_size=10, max_size=40, unique=True)))
    width = draw(st.integers(1, 4))
    rest = [draw(st.lists(FINITE, min_size=len(first), max_size=len(first)))
            for _ in range(width - 1)]
    return [first, *rest]


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


@settings(derandomize=True, max_examples=40, database=None, deadline=None)
@given(tables())
@example([sorted(EDGES[:6] + [-1.0, 1e-300, 1.0, 1.7976931348623157e308]),
          EDGES + [0.0, 1.0, -2.5e-310]])
def test_write_then_read_is_bit_identical(tmp_path_factory, columns):
    names = tuple(f"c{k}" for k in range(len(columns)))
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    write_csv(path, ",".join(names), columns)
    for spec in (names, len(names)):  # header required, header optional
        back = read_csv(path, spec)
        assert len(back) == len(columns)
        for got, want in zip(back, columns):
            assert np.array_equal(bits(got), bits(want))


def rows(n, start=0):
    return "".join(f"{start + i},{0.5 * i}\n" for i in range(n))


def test_optional_header_and_blank_lines(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("t,eta\n\n" + rows(5) + "  \n" + rows(5, start=5))
    t, eta = read_csv(path, 2)
    assert t.tolist() == list(range(10))
    assert eta.tolist() == [0.5 * i for i in range(5)] * 2
    path.write_text(rows(10))
    assert read_csv(path, 2)[0].size == 10
