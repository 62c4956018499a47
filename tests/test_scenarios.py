"""Scenario documents and CSV emission."""

import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from nearband.fresnel import _HUGE
from nearband.regimes import ThresholdSpec
from nearband.scenarios import (
    CutSpec,
    GridSpec,
    Scenario,
    ScenarioError,
    SweepSpec,
    SweepTable,
    emit_csv,
    parse_scenario,
    serialize_scenario,
)

from _oracles import csv_rows

MINIMAL = """
[scenario]
schema_version = 1
preset = n260
n_antennas = 64
tau_db = -1
"""


def test_minimal_document_defaults():
    s = parse_scenario(MINIMAL)
    assert s.carrier_hz == 39e9
    assert s.band_preset == "n260"
    assert s.dbar == 0.5
    assert s.theta_worst_deg == 60.0
    assert s.tau_db == ThresholdSpec.from_db(-1.0)
    assert s.taus == (s.tau_db,)
    assert s.sweep is None


def test_n261_preset_carrier():
    s = parse_scenario(MINIMAL.replace("n260", "n261"))
    assert s.carrier_hz == 28e9


@pytest.mark.parametrize("mutation, fragment", [
    (lambda d: d.replace("preset = n260", "preset = n261\ncarrier_hz = 30e9"), "conflicts"),
    (lambda d: d.replace("preset = n260", "preset = custom"), "required for preset"),
    (lambda d: d.replace("preset = n260", "preset = ka_band"), "unknown preset"),
    (lambda d: d + "mystery = 1\n", "unknown key"),
    (lambda d: d + "\n[extras]\nx = 1\n", "unknown section"),
    (lambda d: d.replace("schema_version = 1", "schema_version = 7"), "unsupported version"),
    (lambda d: d.replace("tau_db = -1", "tau_db = 0.3"), "negative"),
    # negative, but 10**(-1e-18) rounds to a linear gain of 1.0
    (lambda d: d.replace("tau_db = -1", "tau_db = -1e-17"),
     "scenario.tau_db: too shallow: its linear gain .* rounds to 1"),
    # negative, but 10**(-400) underflows to a linear gain of 0
    (lambda d: d.replace("tau_db = -1", "tau_db = -4000"),
     "scenario.tau_db: too deep: its linear gain .* underflows to 0"),
    (lambda d: d.replace("tau_db = -1", "tau_db = lots"), "expected a number"),
    (lambda d: d.replace("n_antennas = 64", "n_antennas = 0"), ">= 1"),
    (lambda d: d.replace("n_antennas = 64", ""), "required key is missing"),
    (lambda d: d + "theta_deg = 95\n", "|theta| < 90"),
    (lambda d: d + "dbar = -0.5\n", "positive"),
    (lambda d: d + "\n[sweep]\naxis = q\nmin = 0\nmax = 1\npoints = 4\n", "unknown axis"),
    (lambda d: d + "\n[sweep]\naxis = r_m\nmin = 1\nmax = 2\npoints = 4\n",
     "unknown axis 'r_m'"),
    (lambda d: d + "\n[sweep]\naxis = f_hz\nmin = 0\nmax = 1\npoints = 10001\n",
     "sweep.points: must be <= 10000"),
    (lambda d: d + "\n[grid]\ngamma1_points = 1001\ngamma2_points = 1000\n",
     "grid.gamma1_points: .* <= 1000000"),
    (lambda d: d + "\n[cuts]\ngamma1_values = 0, 1\ngamma2_values = 1\npoints = 333334\n",
     "cuts.points: .* <= 1000000"),
    (lambda d: d + "\n[sweep]\naxis = f_hz\nmin = 5\nmax = 1\npoints = 4\n", "strictly less"),
    (lambda d: d + "\n[sweep]\naxis = f_hz\nmin = 0\nmax = 1\npoints = 1\n", ">= 2"),
    (lambda d: d + "\n[sweep]\naxis = f_hz\nmin = 0\nmax = 1\npoints = 4\nscale = cubic\n",
     "linear|log"),
    (lambda d: d + "\n[sweep]\naxis = f_hz\nmin = -1\nmax = 1\npoints = 4\nscale = log\n",
     "log scale requires positive"),
    (lambda d: d + "\n[cuts]\ngamma2_values = -0.5\n", "cuts.gamma2_values: must be nonnegative"),
    (lambda d: d + "tau_list_db = ,\n", "scenario.tau_list_db: expected at least one number"),
    (lambda d: "[DEFAULT]\nn_antennas = 8\n" + d, r"keys outside a \[section\] are not allowed"),
    (lambda d: "[grid]\ngamma1_max = 2.0\n", r"missing required section \[scenario\]"),
    (lambda d: d.replace("schema_version = 1\n", ""),
     "scenario.schema_version: required key is missing"),
], ids=lambda v: v if isinstance(v, str) else "")
def test_rejections(mutation, fragment):
    with pytest.raises(ScenarioError, match=fragment.replace("|", r"\|")):
        parse_scenario(mutation(MINIMAL))


@pytest.mark.parametrize("build, message", [
    (lambda: GridSpec(gamma1_points=1), "grid.gamma1_points: grids need at least 2 points"),
    (lambda: GridSpec(gamma2_points=0), "grid.gamma2_points: grids need at least 2 points"),
    (lambda: GridSpec(gamma2_max=-1.0), "grid.gamma2_max: grid extents must be positive"),
    (lambda: GridSpec(gamma1_points=1001, gamma2_points=1000), "grid.gamma1_points: .* <= 1000000"),
    (lambda: GridSpec(gamma2_max=math.inf), "grid.gamma2_max: value must be finite"),
    # |gamma1| + gamma2 reaching the gain kernel's cutoff names the larger extent
    (lambda: GridSpec(gamma1_max=_HUGE - 1.0, gamma2_max=1.0),
     "grid.gamma1_max: |gamma1| .* must stay below 1e.10"),
    (lambda: GridSpec(gamma2_max=1e308), "grid.gamma2_max: |gamma1| .* must stay below 1e.10"),
    (lambda: SweepSpec("f_hz", 5.0, 1.0, 4), "sweep.min: must be strictly less than sweep.max"),
    (lambda: SweepSpec("f_hz", 0.0, 1.0, 10**4 + 1), "sweep.points: must be <= 10000"),
    (lambda: SweepSpec("f_hz", 5.0, 10.0, 4, "cubic"), "sweep.scale: expected linear|log"),
    (lambda: SweepSpec("f_hz", 0.0, 1.0, 4, "log"), "sweep.min: log scale requires positive"),
    (lambda: SweepSpec("f_hz", 1.0, math.inf, 4, "log"), "sweep.max: value must be finite"),
    (lambda: CutSpec(points=1), "cuts.points: must be >= 2"),
    (lambda: CutSpec(gamma2_values=(1.0, -0.5)), "cuts.gamma2_values: must be nonnegative"),
    (lambda: CutSpec(gamma1_values=(math.nan,)), "cuts.gamma1_values: value must be finite"),
    (lambda: CutSpec(gamma1_values=(0.0, -2e10)), "cuts.gamma1_values: |gamma1| .* below 1e.10"),
    (lambda: CutSpec(gamma2_values=(_HUGE,)), "cuts.gamma2_values: |gamma1| .* below 1e.10"),
    # each cut sweeps the grid's other extent, 3.0 by default
    (lambda: Scenario(39e9, 64, -1.0, "n260", cuts=CutSpec(gamma1_values=(3.0 - _HUGE,))),
     "cuts.gamma1_values: |gamma1| .* must stay below 1e.10"),
    (lambda: Scenario(39e9, 64, -1.0, "n260", cuts=CutSpec(gamma2_values=(_HUGE - 3.0,))),
     "cuts.gamma2_values: |gamma1| .* must stay below 1e.10"),
    (lambda: Scenario(30e9, 64, -1.0, "n260"), "scenario.carrier_hz: conflicts with preset 'n260'"),
    (lambda: Scenario(39e9, 0, -1.0, "n260"), "scenario.n_antennas: must be >= 1"),
    (lambda: Scenario(39e9, 10**6 + 1, -1.0, "n260"), "scenario.n_antennas: must be <= 1000000"),
    (lambda: Scenario(28e9, 64.5, -1.0, "n261"), "scenario.n_antennas: must be >= 1 and a whole"),
    (lambda: Scenario(39e9, 64, 3.0, "n260"), "scenario.tau_db: must be negative"),
    (lambda: Scenario(39e9, 64, -1.0, "n260", tau_list_db=(-1.0, 0.5)),
     "scenario.tau_list_db: must be negative"),
], ids=lambda v: v if isinstance(v, str) else "")
def test_types_enforce_the_document_limits(build, message):
    with pytest.raises(ScenarioError, match=message.replace("|", r"\|")):
        build()


def test_grid_and_cuts_reach_up_to_the_kernel_cutoff():
    # the largest extents whose |gamma1| + gamma2 stays below the cutoff
    below = math.nextafter(_HUGE - 3.0, 0.0)
    grid = GridSpec(gamma1_max=below, gamma2_max=3.0)
    Scenario(39e9, 64, -1.0, "n260", grid=grid, cuts=CutSpec(gamma1_values=(0.0,),
                                                           gamma2_values=(3.0,)))
    Scenario(39e9, 64, -1.0, "n260", cuts=CutSpec(gamma1_values=(-below,), gamma2_values=(below,)))


def test_custom_preset_roundtrip():
    doc = MINIMAL.replace("preset = n260", "preset = custom\ncarrier_hz = 72.5e9")
    s = parse_scenario(doc)
    assert s.carrier_hz == 72.5e9
    assert parse_scenario(serialize_scenario(s)) == s


LINEAR = MINIMAL.replace("tau_db = -1", "tau_db = 0.5")


def test_linear_tau_interpretation():
    s = parse_scenario(MINIMAL.replace("tau_db = -1", "tau_db = 0.95"),
                       taus_are_linear=True)
    assert s.tau_db == ThresholdSpec(0.95, 10 * math.log10(0.95))
    with pytest.raises(ScenarioError, match="linear threshold"):
        parse_scenario(MINIMAL.replace("tau_db = -1", "tau_db = 1.5"),
                       taus_are_linear=True)
    with pytest.raises(ScenarioError, match=r"scenario\.tau_list_db: linear threshold"):
        parse_scenario(LINEAR + "tau_list_db = 0.5, 1\n", taus_are_linear=True)


def test_linear_taus_keep_every_bit():
    # 244 of these do not survive a trip through dB and back
    values = [k / 1000 for k in range(1, 1000)]
    doc = LINEAR + "tau_list_db = " + ", ".join(map(repr, values)) + "\n"
    s = parse_scenario(doc, taus_are_linear=True)
    assert [t.tau_linear for t in s.tau_list_db] == values
    assert [t.tau_db for t in s.tau_list_db] == [10.0 * math.log10(v) for v in values]


def test_override_paths():
    s = parse_scenario(MINIMAL, overrides={
        "tau_db": "-2.5",
        "scenario.theta_deg": "30",
        "sweep.axis": "tau_db", "sweep.min": "-3", "sweep.max": "-0.5",
        "sweep.points": "7", "sweep.scale": "linear",
    })
    assert s.tau_db == ThresholdSpec.from_db(-2.5)
    assert s.theta_deg == 30.0
    assert s.sweep == SweepSpec("tau_db", -3.0, -0.5, 7, "linear")
    with pytest.raises(ScenarioError, match="unknown override"):
        parse_scenario(MINIMAL, overrides={"sweep.banana": "1"})


scenario_strategy = st.builds(
    Scenario,
    carrier_hz=st.sampled_from([28e9, 39e9]),
    n_antennas=st.integers(min_value=1, max_value=4096),
    tau_db=st.floats(min_value=-30.0, max_value=-0.01).map(ThresholdSpec.from_db),
    band_preset=st.just("custom"),
    dbar=st.floats(min_value=0.1, max_value=1.0),
    theta_deg=st.floats(min_value=-89.0, max_value=89.0),
    theta_worst_deg=st.floats(min_value=1.0, max_value=89.0),
    tau_list_db=st.lists(st.floats(min_value=-30.0, max_value=-0.01).map(ThresholdSpec.from_db),
                         min_size=0, max_size=4).map(tuple),
    sweep=st.one_of(
        st.none(),
        st.builds(SweepSpec, axis=st.sampled_from(["f_hz", "tau_db"]),
                  lo=st.just(1.0), hi=st.just(2.0),
                  points=st.integers(min_value=2, max_value=64),
                  scale=st.sampled_from(["linear", "log"])),
    ),
    grid=st.builds(GridSpec,
                   gamma1_max=st.floats(min_value=0.5, max_value=8.0),
                   gamma2_max=st.floats(min_value=0.5, max_value=8.0),
                   gamma1_points=st.integers(min_value=2, max_value=300),
                   gamma2_points=st.integers(min_value=2, max_value=300)),
    cuts=st.builds(CutSpec,
                   gamma1_values=st.lists(st.floats(min_value=0.0, max_value=4.0),
                                          min_size=1, max_size=4).map(tuple),
                   gamma2_values=st.lists(st.floats(min_value=0.1, max_value=4.0),
                                          min_size=1, max_size=4).map(tuple),
                   points=st.integers(min_value=2, max_value=500)),
)


@settings(max_examples=100)
@given(scenario_strategy)
def test_serialize_parse_roundtrip(scenario):
    assert parse_scenario(serialize_scenario(scenario)) == scenario


def test_emit_csv_shapes():
    empty = SweepTable(("x", "y"), ([], []), (("tool", "t"),))
    assert emit_csv(empty) == b"# tool = t\nx,y\n"
    one = SweepTable(("v",), ([0.5],), ())
    assert emit_csv(one) == b"v\n0.5\n"


def test_emit_csv_deterministic_and_lf_only():
    table = SweepTable(("a", "b"), ([1.5, 0.1], [math.inf, 3.0]), (("k", "v"),))
    blob = emit_csv(table)
    assert blob == emit_csv(table)
    assert b"\r" not in blob
    assert b"inf" in blob
    assert blob.decode().splitlines()[2] == "1.5,inf"


def test_table_rejects_bad_values():
    with pytest.raises(ValueError):
        SweepTable(("a",), ((math.nan,),), ())
    with pytest.raises(ValueError):
        SweepTable(("a",), ((-math.inf,),), ())
    with pytest.raises(ValueError):
        SweepTable(("a", "b"), ((1.0,),), ())


def test_csv_floats_roundtrip():
    values = (0.1, 1 / 3, 7.25e-9, 39e9)
    table = SweepTable(("x",), (values,), ())
    lines = emit_csv(table).decode().splitlines()[1:]
    assert tuple(float(s) for s in lines) == values


def test_table_rejects_bool_and_non_numeric_columns():
    with pytest.raises(TypeError):
        SweepTable(("a",), ((True,),), ())
    with pytest.raises(TypeError):
        SweepTable(("a",), (["x"],), ())
    with pytest.raises(TypeError):
        SweepTable(("a",), (np.array([1.0, None], dtype=object),), ())


def test_table_rejects_floats_wider_than_64_bits():
    with pytest.raises(TypeError):
        SweepTable(("x",), (np.array([0.1], dtype=np.longdouble),), ())


def test_emit_csv_rejects_a_column_changed_after_construction():
    col = np.array([1.0, 2.0])
    table = SweepTable(("x",), (col,), ())
    col[0] = np.nan
    with pytest.raises(ValueError):
        emit_csv(table)


def test_table_rejects_ragged_or_nested_columns():
    with pytest.raises(ValueError):
        SweepTable(("a", "b"), ([1.0, 2.0], [1.0]), ())
    with pytest.raises(ValueError):
        SweepTable(("a",), (np.zeros((2, 2)),), ())


def test_table_rows_follow_the_columns():
    table = SweepTable(("i", "x"), (np.array([3, -1]), np.array([0.5, math.inf])), ())
    assert table.rows == ((3, 0.5), (-1, math.inf))
    assert all(type(v) in (int, float) for row in table.rows for v in row)


_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 1e308, -1e308, math.inf,
                0.1, 1 / 3, 2.0 ** 53]
_EDGE_INTS = [0, -1, 1, -(2 ** 63), 2 ** 63 - 1, 10 ** 16]


@pytest.mark.parametrize("n_rows", [0, 1, 2047, 2048, 2049, 4097, 8191, 8192, 8193,
                                    3 * 8192 + 5])
# no shrink phase: minimising examples of up to 24,581 rows runs for minutes
@settings(max_examples=8, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(
    floats=st.lists(st.floats(allow_nan=False).filter(lambda v: v != -math.inf), max_size=12),
    ints=st.lists(st.integers(-(2 ** 63), 2 ** 63 - 1), max_size=12),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_emit_csv_matches_per_cell_oracle(n_rows, floats, ints, seed):
    rng = np.random.default_rng(seed)
    fcol = rng.choice(np.array(floats + _EDGE_FLOATS), n_rows)
    icol = rng.choice(np.array(ints + _EDGE_INTS, dtype=np.int64), n_rows)
    f32 = rng.choice(np.array([v for v in floats + _EDGE_FLOATS if abs(v) < 3e38 or v == math.inf],
                              dtype=np.float32), n_rows)
    i32 = rng.choice(np.array([0, -1, 1, -(2 ** 31), 2 ** 31 - 1], dtype=np.int32), n_rows)
    distinct = rng.permutation(n_rows) / 7.0 - 1.0
    data = (fcol, icol, fcol[::-1], f32, i32, distinct)
    table = SweepTable(("f", "i", "g", "f32", "i32", "d"), data, (("k", "v"),))
    rows = zip(*(col.tolist() for col in data))
    assert emit_csv(table) == b"# k = v\nf,i,g,f32,i32,d\n" + csv_rows(rows)


def _formatter_doubles(n: int, seed: int) -> np.ndarray:
    """n/2 random 64-bit patterns (NaN and -inf dropped) and n/2 log-uniform
    magnitudes over [1e-30, 1e30) with random signs."""
    rng = np.random.default_rng(seed)
    bits = np.frombuffer(rng.bytes(8 * (n // 2)), np.float64)
    logu = 10.0 ** rng.uniform(-30, 30, n - n // 2) * rng.choice([-1.0, 1.0], n - n // 2)
    return np.concatenate([bits[~np.isnan(bits) & (bits != -math.inf)], logu])


_FORMATTER_EDGES = [
    0.0, -0.0, math.inf, 5e-324, 2.0 ** -1022 - 5e-324, 2.0 ** -1022, 1.7976931348623157e308,
    9.999999999999999e-05, 1e-4, 9999999999999998.0, 1e16, 1e22, 1e23, 0.30000000000000004,
    1.2e15 + 0.25, 1.2e15 + 0.75, 6e14 + 0.25, 6e14 + 0.75, 2.0 ** 63, 2.0 ** 64,
    *(2.0 ** k for k in range(-100, 101)), *(10.0 ** k for k in range(-30, 31)),
    *(float(f"{'12345678912345678'[:d]}e{e}")
      for d in range(1, 18) for e in (-20, -4, 0, 3, 15, 20)),
]


def test_emit_csv_floats_match_repr():
    # random bit patterns, log-uniform magnitudes and the layout, rounding-tie,
    # power-of-two and interval-end cases of the numpy formatter
    col = np.concatenate([_formatter_doubles(1_000_000, 24), _FORMATTER_EDGES,
                          [-v for v in _FORMATTER_EDGES if v != math.inf]])
    blob = emit_csv(SweepTable(("x",), (col,), ()))
    assert blob == ("x\n" + "\n".join(map(repr, col.tolist())) + "\n").encode()


@pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.uint32, np.uint64])
def test_emit_csv_ints_match_repr(dtype):
    info = np.iinfo(dtype)
    rng = np.random.default_rng(24)
    col = np.concatenate([rng.integers(info.min, info.max, 20_000, dtype=dtype, endpoint=True),
                          np.array([info.min, info.max, 0, 1, 9, 10, 99, 100], dtype)])
    blob = emit_csv(SweepTable(("i",), (col,), ()))
    assert blob == ("i\n" + "\n".join(map(repr, col.tolist())) + "\n").encode()
