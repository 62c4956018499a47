"""Scenario configuration documents and deterministic CSV emission.

A scenario is a flat, typed key = value document in INI form.  Unknown
sections or keys are rejected, as are preset/carrier conflicts.

Schema (version 1)::

    [scenario]
    schema_version = 1            ; required
    preset = n260|n261|custom     ; required; n261 pins carrier to 28 GHz,
                                  ; n260 to 39 GHz
    carrier_hz = <float>          ; required iff preset = custom
    n_antennas = <int >= 1>       ; required
    tau_db = <float < 0>          ; required
    dbar = <float > 0>            ; default 0.5
    theta_deg = <float>           ; default 60, |theta| < 90
    theta_worst_deg = <float>     ; default 60, 0 < |theta| < 90
    tau_list_db = <floats, comma separated>   ; default: tau_db

    [sweep]                       ; needed by band-map (f_hz) / bmax-curve (tau_db)
    axis = f_hz|tau_db
    min = <float>                 ; min < max
    max = <float>
    points = <int >= 2>           ; at most 10,000
    scale = linear|log            ; default linear

    [grid]                        ; gain-surface defaults shown
    gamma1_max = 3.0
    gamma2_max = 3.0
    gamma1_points = 121           ; gamma1_points * gamma2_points
    gamma2_points = 120           ; at most 1,000,000

    [cuts]                        ; gain-cuts defaults shown
    gamma1_values = 0, 0.5, 1
    gamma2_values = 0.5, 1, 2
    points = 200                  ; points * (number of values) at most 1,000,000

Angles are degrees at this interface and radians inside the library.
CSV output is deterministic byte-for-byte: '#'-prefixed metadata lines,
a header row, then data rows with decimal integers, shortest round-trip
floats and LF line endings.  A diverged distance is written as ``inf``.
Rows are formatted a block at a time; a block column that repeats its
values, as sweep axes do, formats each distinct value once.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "ScenarioError",
    "SweepSpec",
    "GridSpec",
    "CutSpec",
    "Scenario",
    "SweepTable",
    "parse_scenario",
    "serialize_scenario",
    "emit_csv",
    "PRESET_CARRIER_HZ",
]

SCHEMA_VERSION = 1
PRESET_CARRIER_HZ = {"n261": 28e9, "n260": 39e9}
SWEEP_AXES = ("f_hz", "tau_db")
# Size caps: every sweep holds its columns, and their CSV bytes, in memory.
_MAX_SWEEP_POINTS = 10_000
_MAX_TABLE_ROWS = 1_000_000


class ScenarioError(ValueError):
    """Malformed scenario document; message carries the offending key path."""


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    lo: float
    hi: float
    points: int
    scale: str = "linear"


@dataclass(frozen=True)
class GridSpec:
    gamma1_max: float = 3.0
    gamma2_max: float = 3.0
    gamma1_points: int = 121
    gamma2_points: int = 120


@dataclass(frozen=True)
class CutSpec:
    gamma1_values: tuple = (0.0, 0.5, 1.0)
    gamma2_values: tuple = (0.5, 1.0, 2.0)
    points: int = 200


@dataclass(frozen=True)
class Scenario:
    carrier_hz: float
    n_antennas: int
    tau_db: float
    band_preset: str
    dbar: float = 0.5
    theta_deg: float = 60.0
    theta_worst_deg: float = 60.0
    tau_list_db: tuple = ()
    sweep: SweepSpec | None = None
    grid: GridSpec = GridSpec()
    cuts: CutSpec = CutSpec()

    @property
    def theta_rad(self) -> float:
        return math.radians(self.theta_deg)

    @property
    def theta_worst_rad(self) -> float:
        return math.radians(self.theta_worst_deg)

    @property
    def taus_db(self) -> tuple:
        return self.tau_list_db if self.tau_list_db else (self.tau_db,)


@dataclass(frozen=True, eq=False)
class SweepTable:
    """Column-major numeric table plus a metadata block for the CSV header.

    ``data`` holds one 1-D integer or float array per column, all of one
    length; bool, non-numeric and wider-than-64-bit float columns, NaN and
    -inf are rejected.
    """

    columns: tuple
    data: tuple
    metadata: tuple  # ordered (key, value) pairs

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "data", tuple(np.asarray(c) for c in self.data))
        object.__setattr__(self, "metadata", tuple(tuple(kv) for kv in self.metadata))
        if len(self.data) != len(self.columns):
            raise ValueError("table data must match the header width")
        for col in self.data:
            if col.dtype.kind not in "iuf" or col.itemsize > 8:
                raise TypeError(f"table columns must be int or float <= 64 bits, not {col.dtype}")
            if col.ndim != 1 or len(col) != len(self.data[0]):
                raise ValueError("table columns must be 1-D and of equal length")
            _check_values(col)

    @property
    def rows(self) -> tuple:
        """The cells as row tuples of Python numbers, built on each access."""
        return tuple(zip(*(col.tolist() for col in self.data)))


def _check_values(col: np.ndarray) -> None:
    if not (col > -np.inf).all():  # false exactly for NaN and -inf
        raise ValueError("NaN/-inf are not valid table values")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_KNOWN = {
    "scenario": (
        "schema_version", "preset", "carrier_hz", "n_antennas", "tau_db",
        "dbar", "theta_deg", "theta_worst_deg", "tau_list_db",
    ),
    "sweep": ("axis", "min", "max", "points", "scale"),
    "grid": tuple(f.name for f in fields(GridSpec)),
    "cuts": tuple(f.name for f in fields(CutSpec)),
}


def _raw_sections(text: str) -> dict:
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"malformed scenario document: {exc}") from None
    if parser.defaults():
        raise ScenarioError("keys outside a [section] are not allowed")
    out = {}
    for section in parser.sections():
        if section not in _KNOWN:
            raise ScenarioError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _KNOWN[section]:
                raise ScenarioError(f"{section}.{key}: unknown key")
        out[section] = dict(parser[section])
    if "scenario" not in out:
        raise ScenarioError("missing required section [scenario]")
    return out


def _take(raw: dict, section: str, key: str, required: bool = False, default=None):
    value = raw.get(section, {}).get(key)
    if value is None:
        if required:
            raise ScenarioError(f"{section}.{key}: required key is missing")
        return default
    return value


def _as_float(path: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ScenarioError(f"{path}: expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ScenarioError(f"{path}: value must be finite")
    return value


def _as_int(path: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ScenarioError(f"{path}: expected an integer, got {text!r}") from None


def _as_float_list(path: str, text: str) -> tuple:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ScenarioError(f"{path}: expected at least one number")
    return tuple(_as_float(path, p) for p in parts)


def _spec(raw: dict, section: str, cls):
    """A GridSpec or CutSpec from its section; absent keys keep the defaults."""
    convert = {float: _as_float, int: _as_int, tuple: _as_float_list}
    values = {}
    for f in fields(cls):
        text = _take(raw, section, f.name)
        values[f.name] = f.default if text is None \
            else convert[type(f.default)](f"{section}.{f.name}", text)
    return cls(**values)


def _tau_db(path: str, value: float, linear: bool) -> float:
    if linear:
        if not (0.0 < value < 1.0):
            raise ScenarioError(f"{path}: linear threshold must lie in (0, 1)")
        return 10.0 * math.log10(value)
    if value >= 0:
        raise ScenarioError(f"{path}: must be negative (a loss threshold)")
    return value


def parse_scenario(text: str, overrides: dict | None = None,
                   taus_are_linear: bool = False) -> Scenario:
    """Parse and validate a scenario document.

    ``overrides`` maps ``key`` (of the [scenario] section) or
    ``section.key`` to replacement raw values; they are applied before
    validation, so every constraint still holds for the merged result.
    With ``taus_are_linear`` the tau values in the document are read as
    linear gains in (0, 1) and converted to dB internally.
    """
    raw = _raw_sections(text)
    for spec, value in (overrides or {}).items():
        section, _, key = spec.rpartition(".")
        section = section or "scenario"
        if section not in _KNOWN or key not in _KNOWN[section]:
            raise ScenarioError(f"{section}.{key}: unknown override key")
        raw.setdefault(section, {})[key] = value

    version = _as_int("scenario.schema_version",
                      _take(raw, "scenario", "schema_version", required=True))
    if version != SCHEMA_VERSION:
        raise ScenarioError(f"scenario.schema_version: unsupported version {version}")

    preset = _take(raw, "scenario", "preset", required=True)
    if preset not in (*PRESET_CARRIER_HZ, "custom"):
        raise ScenarioError(f"scenario.preset: unknown preset {preset!r}")
    carrier_text = _take(raw, "scenario", "carrier_hz")
    if preset == "custom":
        if carrier_text is None:
            raise ScenarioError("scenario.carrier_hz: required for preset 'custom'")
        carrier_hz = _as_float("scenario.carrier_hz", carrier_text)
        if carrier_hz <= 0:
            raise ScenarioError("scenario.carrier_hz: must be positive")
    else:
        if carrier_text is not None:
            raise ScenarioError(
                f"scenario.carrier_hz: conflicts with preset {preset!r}, "
                "which fixes the carrier")
        carrier_hz = PRESET_CARRIER_HZ[preset]

    n_antennas = _as_int("scenario.n_antennas",
                         _take(raw, "scenario", "n_antennas", required=True))
    if n_antennas < 1:
        raise ScenarioError("scenario.n_antennas: must be >= 1")

    tau_db = _tau_db("scenario.tau_db",
                     _as_float("scenario.tau_db",
                               _take(raw, "scenario", "tau_db", required=True)),
                     taus_are_linear)

    dbar = _as_float("scenario.dbar", _take(raw, "scenario", "dbar", default="0.5"))
    if dbar <= 0:
        raise ScenarioError("scenario.dbar: must be positive")

    theta_deg = _as_float("scenario.theta_deg",
                          _take(raw, "scenario", "theta_deg", default="60"))
    if not (abs(theta_deg) < 90):
        raise ScenarioError("scenario.theta_deg: must satisfy |theta| < 90")

    theta_worst_deg = _as_float("scenario.theta_worst_deg",
                                _take(raw, "scenario", "theta_worst_deg", default="60"))
    if not (0 < abs(theta_worst_deg) < 90):
        raise ScenarioError("scenario.theta_worst_deg: must satisfy 0 < |theta| < 90")

    tau_list_text = _take(raw, "scenario", "tau_list_db")
    tau_list_db = ()
    if tau_list_text is not None:
        tau_list_db = tuple(
            _tau_db("scenario.tau_list_db", v, taus_are_linear)
            for v in _as_float_list("scenario.tau_list_db", tau_list_text)
        )

    sweep = None
    if "sweep" in raw:
        axis = _take(raw, "sweep", "axis", required=True)
        if axis not in SWEEP_AXES:
            raise ScenarioError(f"sweep.axis: unknown axis {axis!r}")
        lo = _as_float("sweep.min", _take(raw, "sweep", "min", required=True))
        hi = _as_float("sweep.max", _take(raw, "sweep", "max", required=True))
        if not lo < hi:
            raise ScenarioError("sweep.min: must be strictly less than sweep.max")
        points = _as_int("sweep.points", _take(raw, "sweep", "points", required=True))
        if points < 2:
            raise ScenarioError("sweep.points: must be >= 2")
        if points > _MAX_SWEEP_POINTS:
            raise ScenarioError(f"sweep.points: must be <= {_MAX_SWEEP_POINTS}")
        scale = _take(raw, "sweep", "scale", default="linear")
        if scale not in ("linear", "log"):
            raise ScenarioError(f"sweep.scale: expected linear|log, got {scale!r}")
        if scale == "log" and lo <= 0:
            raise ScenarioError("sweep.min: log scale requires positive bounds")
        sweep = SweepSpec(axis, lo, hi, points, scale)

    grid = _spec(raw, "grid", GridSpec)
    if grid.gamma1_max <= 0 or grid.gamma2_max <= 0:
        raise ScenarioError("grid.gamma1_max: grid extents must be positive")
    if grid.gamma1_points < 2 or grid.gamma2_points < 2:
        raise ScenarioError("grid.gamma1_points: grids need at least 2 points")
    if grid.gamma1_points * grid.gamma2_points > _MAX_TABLE_ROWS:
        raise ScenarioError(
            f"grid.gamma1_points: gamma1_points * gamma2_points must be <= {_MAX_TABLE_ROWS}")

    cuts = _spec(raw, "cuts", CutSpec)
    if cuts.points < 2:
        raise ScenarioError("cuts.points: must be >= 2")
    if cuts.points * (len(cuts.gamma1_values) + len(cuts.gamma2_values)) > _MAX_TABLE_ROWS:
        raise ScenarioError(
            f"cuts.points: points times the number of cut values must be <= {_MAX_TABLE_ROWS}")

    return Scenario(
        carrier_hz=carrier_hz,
        n_antennas=n_antennas,
        tau_db=tau_db,
        band_preset=preset,
        dbar=dbar,
        theta_deg=theta_deg,
        theta_worst_deg=theta_worst_deg,
        tau_list_db=tau_list_db,
        sweep=sweep,
        grid=grid,
        cuts=cuts,
    )


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical document for a Scenario; parse(serialize(s)) == s."""
    out = io.StringIO()
    out.write("[scenario]\n")
    out.write(f"schema_version = {SCHEMA_VERSION}\n")
    out.write(f"preset = {scenario.band_preset}\n")
    if scenario.band_preset == "custom":
        out.write(f"carrier_hz = {scenario.carrier_hz!r}\n")
    out.write(f"n_antennas = {scenario.n_antennas}\n")
    out.write(f"tau_db = {scenario.tau_db!r}\n")
    out.write(f"dbar = {scenario.dbar!r}\n")
    out.write(f"theta_deg = {scenario.theta_deg!r}\n")
    out.write(f"theta_worst_deg = {scenario.theta_worst_deg!r}\n")
    if scenario.tau_list_db:
        out.write("tau_list_db = " + ", ".join(repr(t) for t in scenario.tau_list_db) + "\n")
    if scenario.sweep is not None:
        s = scenario.sweep
        out.write("\n[sweep]\n")
        out.write(f"axis = {s.axis}\nmin = {s.lo!r}\nmax = {s.hi!r}\n")
        out.write(f"points = {s.points}\nscale = {s.scale}\n")
    for section, spec in (("grid", scenario.grid), ("cuts", scenario.cuts)):
        if spec != type(spec)():
            out.write(f"\n[{section}]\n")
            for f in fields(spec):
                value = getattr(spec, f.name)
                text = ", ".join(map(repr, value)) if isinstance(value, tuple) else repr(value)
                out.write(f"{f.name} = {text}\n")
    return out.getvalue()


_EMIT_BLOCK_ROWS = 8192


def _block_cells(col: np.ndarray):
    """One column block as cell strings.  When at most half the cells are
    distinct (keyed by bits, so -0.0 != 0.0), ``repr`` runs once per distinct
    value; else lazily per cell, as expanding would hold all the strings."""
    _check_values(col)
    keys = col.view(f"i{col.itemsize}") if col.dtype.kind == "f" else col
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    if 2 * len(first) > len(col):
        return map(repr, col.tolist())
    return np.array([repr(v) for v in col[first].tolist()], dtype=object)[inverse]


def emit_csv(table: SweepTable) -> bytes:
    """Serialize a table deterministically: metadata, header, rows, LF-only.

    ``repr`` of the Python numbers from ``tolist`` gives decimal integers and
    shortest round-trip floats; only one block of rows is formatted at a
    time.  Each block is checked for NaN/-inf (``ValueError``) first, as a
    column may have been written to since the table was built.
    """
    head = [f"# {key} = {value}" for key, value in table.metadata] + [",".join(table.columns)]
    blocks = [("\n".join(head) + "\n").encode("utf-8")]
    for i in range(0, len(table.data[0]) if table.data else 0, _EMIT_BLOCK_ROWS):
        cells = [_block_cells(col[i:i + _EMIT_BLOCK_ROWS]) for col in table.data]
        blocks.append(("\n".join(map(",".join, zip(*cells))) + "\n").encode("utf-8"))
    return b"".join(blocks)
