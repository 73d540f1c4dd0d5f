"""The vectorized float-to-text kernel behind every CSV file.

Its one contract is repr's bytes: each cell must read exactly as
repr(float(x)) reads on this interpreter, which is the oracle throughout.
The kernel may hand a value it cannot certify to repr itself; the guards
below check that it seldom needs to, so a silent fall back to all-repr
fails here rather than only in the benchmark.
"""

import math
import sys
import warnings

import numpy as np
import pytest

from antimix._floattext import WIDTH, _render, csv_rows, repr_cells
from antimix.cli import _profile_columns
from antimix.packets import PacketSpec, synthesize_packet
from antimix.units import ModelKind


def rendered_lines(values) -> bytes:
    """The kernel's cells, one per line, NULs dropped."""
    cells = repr_cells(values)
    lines = np.empty((cells.shape[0], WIDTH + 1), dtype=np.uint8)
    lines[:, :WIDTH] = cells
    lines[:, WIDTH] = ord("\n")
    return lines.tobytes().translate(None, b"\0")


def assert_renders_as_repr(values):
    values = np.asarray(values, dtype=float)
    got = rendered_lines(values)
    want = "".join(repr(v) + "\n" for v in values.tolist()).encode()
    if got != want:
        bad = [(w, g) for w, g in zip(want.decode().split(), got.decode().split()) if w != g]
        pytest.fail(f"{len(bad)} of {values.size} cells differ from repr, e.g. {bad[:5]}")


def edge_values() -> np.ndarray:
    powers = [2.0**k for k in range(-1074, 1024)]
    decades = [10.0**k for k in range(-323, 309)]
    near = [1e16, 1e-4, 1e22, 1e23, 1e15, 1e17, 9.999999999999999e-05, 9999999999999998.0,
            0.1, 0.2, 0.3, 1 / 3, 2 / 3, 123456789012345680.0]
    for v in list(near):
        down = up = v
        for _ in range(4):
            down, up = math.nextafter(down, 0.0), math.nextafter(up, math.inf)
            near += [down, up]
    integers = [2.0**53 + k for k in range(-8, 9)] + [2.0**54 + 2 * k for k in range(-4, 5)]
    fives = [0.5, 0.25, 0.125, 0.375, 2.5, 12.5, 0.0625, 1.5e-5, 2.5e-5, 0.00015, 5e-5,
             1.25e15, 2.5e15, 1e-5 + 5e-21, 4.35, 0.15, 0.35, 0.45, 1.005, 2.675]
    specials = [0.0, 5e-324, 1e-323, 2.2250738585072014e-308, 2.225073858507201e-308,
                sys.float_info.max, sys.float_info.min, sys.float_info.epsilon,
                math.nan, math.inf, 1e-280, 1e280, 1.1e-280, 9.1e279, 2.0**-930, 2.0**930]
    values = np.array(powers + decades + near + integers + fives + specials)
    return np.concatenate([values, -values])


def test_edge_values_render_as_repr():
    assert_renders_as_repr(edge_values())


def test_a_million_seeded_values_render_as_repr():
    rng = np.random.default_rng(20240613)
    values = np.concatenate([
        rng.integers(0, 2**64, 400_000, dtype=np.uint64).view(np.float64),  # raw bit patterns
        rng.uniform(-1.0, 1.0, 150_000),
        np.copysign(10.0 ** rng.uniform(-30, 30, 150_000), rng.uniform(-1, 1, 150_000)),
        np.round(rng.uniform(-1000.0, 1000.0, 100_000), 3),  # 3-decimal values
        rng.integers(-10**17, 10**17, 100_000).astype(float),  # integers up to 1e17
        rng.integers(-2**40, 2**40, 50_000) / 2.0 ** rng.integers(0, 60, 50_000),  # dyadic
        np.linspace(-60.0, 60.0, 50_000),
    ])
    assert values.size >= 10**6
    assert_renders_as_repr(values)


def test_every_digit_count_at_every_decimal_exponent_renders_as_repr():
    # d = 1 .. 17 significant digits at every exponent from -324 to 308, both
    # signs: every notation (the switches at 1e-4 and 1e16 included), every
    # point position and every count of trailing zeros the digit search finds
    rng = np.random.default_rng(15)
    values = []
    for d in range(1, 18):
        digits = rng.integers(0, 10, (633, d))
        digits[:, 0] = rng.integers(1, 10, 633)
        digits[:, -1] = rng.integers(1, 10, 633)
        for e10, row in zip(range(-324, 309), digits):
            values.append(float(f"{''.join(map(str, row))}e{e10 - d + 1}"))
    integers = [1200.0, 1e15, 123456789012345.0, 1234567890123456.0, 9007199254740992.0,
                100.0, 1e5, 120000.0, 3e15, 9999999999999998.0, 1e16, 1.2e16, 1e17]
    small = [1e-4, 1.2e-4, 9.99e-5, 0.001, 0.0123, 0.5, 1e-5, 1.5e-5]
    values = np.array(values + integers + small)
    assert_renders_as_repr(np.concatenate([values, -values]))
    # the fast range is certified: only the ends of the sweep go to repr
    fast = (np.abs(values) >= 2.0**-929) & (np.abs(values) < 2.0**930)
    assert certified_share(values[fast]) >= 0.99


def test_csv_rows_match_per_cell_repr():
    rng = np.random.default_rng(7)
    rows = 5000  # several row blocks of three columns
    table = rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(-8, 8, (rows, 3))
    table[::97, 1] = np.nan
    table[::89, 2] = -0.0
    grid = np.linspace(-1.0, 1.0, rows)
    got = csv_rows("x,a,b,c", repr_cells(grid), table)
    lines = ["x,a,b,c"] + [",".join(map(repr, [g, *row]))
                           for g, row in zip(grid.tolist(), table.tolist())]
    assert got == ("\n".join(lines) + "\n").encode()


def expected_csv(header: str, grid, table) -> bytes:
    lines = [header] + [",".join(map(repr, [g, *row])) for g, row in zip(grid, table.tolist())]
    return ("\n".join(lines) + "\n").encode()


def test_csv_rows_of_no_rows_is_the_header():
    assert csv_rows("x,a,b", repr_cells([]), np.empty((0, 2))) == b"x,a,b\n"


@pytest.mark.parametrize("rows, k", [(1, 1), (5000, 1), (4096, 1), (2 * 1365 + 7, 3), (1365, 3)])
def test_csv_rows_of_any_row_count_and_width(rows, k):
    # one value column fills a block with 4096 rows; three fill it with 1365
    rng = np.random.default_rng(rows + k)
    table = rng.standard_normal((rows, k)) * 10.0 ** rng.integers(-20, 20, (rows, k))
    grid = np.arange(rows) * 0.125 - 3.0
    assert csv_rows("x" + ",v" * k, repr_cells(grid), table) == expected_csv(
        "x" + ",v" * k, grid.tolist(), table)


def test_special_values_raise_no_floating_point_warning():
    values = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
              2.2250738585072014e-308, 1e-310, sys.float_info.max, -sys.float_info.max]
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        assert_renders_as_repr(values)


def certified_share(values) -> float:
    values = np.asarray(values, dtype=float).reshape(-1, 1)
    out = np.empty((values.shape[0], 1, WIDTH), dtype=np.uint8)
    return 1.0 - _render(values, out) / values.shape[0]


def test_certified_path_renders_nearly_all_uniform_randoms():
    values = np.random.default_rng(3).uniform(-1.0, 1.0, 100_000)
    assert certified_share(values) >= 0.99


@pytest.mark.parametrize("model", [ModelKind.KLEIN_GORDON, ModelKind.DIRAC])
def test_certified_path_renders_nearly_all_of_a_production_panel(model):
    fld = synthesize_packet(PacketSpec(model=model, beta=0.99999))
    header, columns = _profile_columns(fld)
    assert certified_share(np.concatenate(columns)) >= 0.99
