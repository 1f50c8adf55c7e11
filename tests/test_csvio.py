"""The CSV reader's round trip with the CSV writer, its optional header,
and the writer's numpy %.17g text against CPython's."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bore_lab import csvio
from bore_lab.config import build_run_config, build_wave_params, preset_pairs
from bore_lab.csvio import read_csv, write_csv
from bore_lab.pde import evolve, make_initial
from bore_lab.traveling_wave import csv_rows, integrate_profile
from bore_lab.waveform import WaveParams

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


def savetxt_bytes(path, header, columns):
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",", header=header,
               comments="")
    return path.read_bytes()


def exactness_corpus():
    """Seeded values whose %.17g text the kernel must match byte for byte."""
    rng = np.random.default_rng(20261020)
    bits = rng.integers(0, 2**64, size=200_001, dtype=np.uint64, endpoint=False)
    patterns = bits.view(np.float64)  # both signs, subnormals, nan payloads
    log_uniform = 10.0 ** rng.uniform(-320.0, np.log10(1.7e308), 60_000)
    log_uniform *= rng.choice([-1.0, 1.0], log_uniform.size)
    integers = rng.integers(-10**18, 10**18, 40_000, endpoint=True).astype(np.float64)
    # k / 2**18 for odd k >= 2**17 has 18 significant digits ending in 5: a
    # tie at 17 digits, 131073 / 262144 = 0.500003814697265625 the first.
    odd = 2 * rng.integers(2**16, 2**17, 20_000) + 1
    ties = np.concatenate([odd / 2.0**18, -odd[:5000] / 2.0**18, [131073 / 262144]])
    powers = 10.0 ** np.arange(-300, 301)
    edges = np.array([1e-280, 1e280])
    near = np.concatenate([powers, edges])
    near = np.concatenate([near, np.nextafter(near, 0.0), np.nextafter(near, np.inf)])
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 1e16, 1e17, 0.0001, 1e-5]
    return np.concatenate([patterns, log_uniform, integers, ties, near, -near, special])


def test_write_csv_matches_savetxt_on_an_exactness_corpus(tmp_path):
    values = exactness_corpus()
    values = np.concatenate([values, np.zeros(-values.size % 3)])
    columns = list(values.reshape(-1, 3).T)
    write_csv(tmp_path / "a.csv", "a,b,c", columns)
    assert (tmp_path / "a.csv").read_bytes() == savetxt_bytes(tmp_path / "b.csv", "a,b,c", columns)


@pytest.mark.parametrize("columns", [
    [np.array([]), np.array([])],  # 0 rows
    [np.array([-0.0]), np.array([0.0]), np.array([1e280])],  # 1 row
    [np.array([0.1, -0.0, 1e-5, 123456789.0, np.nan] * 900)],  # 1 column, 3 blocks
], ids=["0-rows", "1-row", "1-column"])
def test_write_csv_matches_savetxt_on_small_shapes(tmp_path, columns):
    header = ",".join("abc"[: len(columns)])
    write_csv(tmp_path / "a.csv", header, columns)
    assert (tmp_path / "a.csv").read_bytes() == savetxt_bytes(tmp_path / "b.csv", header, columns)


def workload_tables():
    """The kinds of table the benchmarked commands write, by name."""
    tables = {}
    triples = {name: build_wave_params(preset_pairs(name))
               for name in ("fig2", "fig5", "fig6-a", "fig6-b", "fig6-c", "fig9")}
    triples.update({f"stiff-{d}": WaveParams(1.3, d, 1.2) for d in (0.08, 0.12)})
    for name, params in triples.items():
        profile = integrate_profile(params)
        rows = csv_rows(profile)
        tables[name] = [profile.xi[rows], profile.u[rows], profile.v[rows], profile.eta[rows]]
    cfg = build_run_config({k: str(v) for k, v in preset_pairs("sec4-riemann").items()})
    start = make_initial(cfg.ic, cfg.grid)
    later = evolve(dataclasses.replace(cfg, t_end=1.0, snapshot_times=(1.0,)))[-1]
    for name, state in (("sec4-riemann-t0", start), ("sec4-riemann-t1", later)):
        tables[name] = [cfg.grid.x, state.eta, state.u]
    return tables


def test_workload_tables_take_no_fallback():
    # A value the kernel cannot certify costs a '%.17g' call of its own; the
    # commands the benchmark runs write none (the c08 error series is checked
    # in test_acceptance, beside the study it comes from).
    for name, columns in workload_tables().items():
        values = np.column_stack(columns).ravel()
        if name == "sec4-riemann-t0":
            assert np.count_nonzero(values == 0.0) > 9000  # exact zeros go through the kernel
        assert not csvio._decimal(values)[-1].any(), name
