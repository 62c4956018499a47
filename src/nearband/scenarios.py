"""Scenario configuration documents and deterministic CSV emission.

A scenario is a flat, typed key = value document in INI form: a required
[scenario] section, which also carries ``schema_version = 1``, and the
optional [sweep] (band-map, bmax-curve), [grid] (gain-surface) and [cuts]
(gain-cuts).  The README's "Scenario files" block is a full example.

Each section is read into one frozen dataclass (``Scenario``,
``SweepSpec``, ``GridSpec``, ``CutSpec``) by one reader driven by its
fields.  A key is the field name, or the field's ``key`` metadata where
the document says otherwise (preset, min, max); the field's type converts
the text; a key with a field default is optional, one without is
required.  Unknown sections or keys are rejected.

Validation lives with the values: each of those dataclasses checks its
own limits in ``__post_init__`` and raises ``ScenarioError`` naming the
document key path, so a scenario built in code is held to the same limits
as one read from a document.  ``parse_scenario`` keeps only the rules
across keys: the schema version and ``carrier_hz`` given iff the preset is
custom (n261 fixes 28 GHz and n260 39 GHz).  A tau is read into a
``ThresholdSpec`` from the number written, in dB or (``--linear``) linear.

Angles are degrees at this interface and radians inside the library.
CSV output is deterministic byte-for-byte: '#'-prefixed metadata lines,
a header row, then data rows with decimal integers, shortest round-trip
floats and LF line endings.  A diverged distance is written as ``inf``.
Rows are formatted a block at a time, each cell in numpy unless ``repr``
writes it in exponent form (below 1e-4 or from 1e16 in magnitude, or
``inf``), which ``repr`` itself writes.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import MISSING, dataclass, field, fields
from functools import cache

import numpy as np

from .arrays import _check_count
from .fresnel import _HUGE
from .regimes import ThresholdSpec

__all__ = [
    "ScenarioError",
    "SweepSpec",
    "GridSpec",
    "CutSpec",
    "Scenario",
    "SweepTable",
    "parse_scenario",
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


# annotations of the fields that are keys (a tuple by its element's); others are sections
_ELEMENT = {"tuple": "float", "tuple[ThresholdSpec, ...]": "ThresholdSpec"}
_KINDS = ("float", "int", "str", "ThresholdSpec", *_ELEMENT)


def _threshold(path: str, value, linear: bool = False) -> ThresholdSpec:
    """A threshold given in dB (or as a linear gain) as a ThresholdSpec."""
    if isinstance(value, ThresholdSpec):
        return value
    try:
        return ThresholdSpec.from_linear(value) if linear else ThresholdSpec.from_db(value)
    except ValueError:
        rule = ("value must be finite" if not math.isfinite(value) else
                "linear threshold must lie in (0, 1)" if linear else
                "must be negative (a loss threshold)" if not value < 0.0 else
                "too deep: its linear gain 10^(tau_db/10) underflows to 0"
                if 10.0 ** (value / 10.0) == 0.0 else
                "too shallow: its linear gain 10^(tau_db/10) rounds to 1")
        raise ScenarioError(f"{path}: {rule}") from None


def _convert(kind: str, path: str, text: str, linear: bool = False):
    """The document text of a key as a value of its field's type ``kind``."""
    if kind == "str":
        return text
    if kind in _ELEMENT:
        parts = [p.strip() for p in text.split(",") if p.strip()]
        if not parts:
            raise ScenarioError(f"{path}: expected at least one number")
        return tuple(_convert(_ELEMENT[kind], path, p, linear) for p in parts)
    try:
        value = int(text) if kind == "int" else float(text)
    except ValueError:
        noun = "an integer" if kind == "int" else "a number"
        raise ScenarioError(f"{path}: expected {noun}, got {text!r}") from None
    return _threshold(path, value, linear) if kind == "ThresholdSpec" else value


def _keys(cls) -> list:
    """(field, document key) for each key of the section that cls reads."""
    return [(f, f.metadata.get("key", f.name)) for f in fields(cls) if f.type in _KINDS]


def _check_finite(spec, section: str) -> None:
    for f, key in _keys(type(spec)):
        value = getattr(spec, f.name)
        if f.type in ("float", "tuple") and not all(
                map(math.isfinite, value if f.type == "tuple" else (value,))):
            raise ScenarioError(f"{section}.{key}: value must be finite")


def _check_cutoff(path: str, values, extent: float) -> None:
    """Reject a grid extent or cut value v for which |v| + extent, the largest
    |gamma1| + gamma2 it lets the gain kernel see, reaches the kernel's 1e10
    cutoff: from there C = S = 1/2 on the upper argument, and the gain jumps by
    orders of magnitude, then reads exactly 0."""
    if not all(abs(v) + extent < _HUGE for v in values):
        raise ScenarioError(f"{path}: |gamma1| + gamma2 must stay below {_HUGE:g}, "
                            "the gain kernel's large-argument cutoff")


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    lo: float = field(metadata={"key": "min"})
    hi: float = field(metadata={"key": "max"})
    points: int
    scale: str = "linear"

    def __post_init__(self):
        _check_finite(self, "sweep")
        if self.axis not in SWEEP_AXES:
            raise ScenarioError(f"sweep.axis: unknown axis {self.axis!r}")
        if not self.lo < self.hi:
            raise ScenarioError("sweep.min: must be strictly less than sweep.max")
        if self.points < 2:
            raise ScenarioError("sweep.points: must be >= 2")
        if self.points > _MAX_SWEEP_POINTS:
            raise ScenarioError(f"sweep.points: must be <= {_MAX_SWEEP_POINTS}")
        if self.scale not in ("linear", "log"):
            raise ScenarioError(f"sweep.scale: expected linear|log, got {self.scale!r}")
        if self.scale == "log" and self.lo <= 0:
            raise ScenarioError("sweep.min: log scale requires positive bounds")


@dataclass(frozen=True)
class GridSpec:
    gamma1_max: float = 3.0
    gamma2_max: float = 3.0
    gamma1_points: int = 121
    gamma2_points: int = 120

    def __post_init__(self):
        _check_finite(self, "grid")
        for key in ("gamma1_max", "gamma2_max"):
            if getattr(self, key) <= 0:
                raise ScenarioError(f"grid.{key}: grid extents must be positive")
        # the grid's far corner is (gamma1_max, gamma2_max): name the larger extent
        key = "gamma1_max" if self.gamma1_max >= self.gamma2_max else "gamma2_max"
        _check_cutoff(f"grid.{key}", (self.gamma1_max,), self.gamma2_max)
        for key in ("gamma1_points", "gamma2_points"):
            if getattr(self, key) < 2:
                raise ScenarioError(f"grid.{key}: grids need at least 2 points")
        if self.gamma1_points * self.gamma2_points > _MAX_TABLE_ROWS:
            raise ScenarioError(
                f"grid.gamma1_points: gamma1_points * gamma2_points must be <= {_MAX_TABLE_ROWS}")


@dataclass(frozen=True)
class CutSpec:
    gamma1_values: tuple = (0.0, 0.5, 1.0)
    gamma2_values: tuple = (0.5, 1.0, 2.0)
    points: int = 200

    def __post_init__(self):
        _check_finite(self, "cuts")
        if any(v < 0 for v in self.gamma2_values):
            raise ScenarioError("cuts.gamma2_values: must be nonnegative")
        for key in ("gamma1_values", "gamma2_values"):
            _check_cutoff(f"cuts.{key}", getattr(self, key), 0.0)
        if self.points < 2:
            raise ScenarioError("cuts.points: must be >= 2")
        if self.points * (len(self.gamma1_values) + len(self.gamma2_values)) > _MAX_TABLE_ROWS:
            raise ScenarioError(
                f"cuts.points: points times the number of cut values must be <= {_MAX_TABLE_ROWS}")


@dataclass(frozen=True)
class Scenario:
    """The [scenario] section and the sections it holds.  Each tau is a
    ``ThresholdSpec``; a plain number given in code is read as dB."""

    carrier_hz: float
    n_antennas: int
    tau_db: ThresholdSpec
    band_preset: str = field(metadata={"key": "preset"})
    dbar: float = 0.5
    theta_deg: float = 60.0
    theta_worst_deg: float = 60.0
    tau_list_db: tuple[ThresholdSpec, ...] = ()
    sweep: SweepSpec | None = None
    grid: GridSpec = GridSpec()
    cuts: CutSpec = CutSpec()

    def __post_init__(self):
        # the preset first: a document with an unknown preset gives carrier_hz None
        if self.band_preset not in (*PRESET_CARRIER_HZ, "custom"):
            raise ScenarioError(f"scenario.preset: unknown preset {self.band_preset!r}")
        if self.band_preset != "custom" and self.carrier_hz != PRESET_CARRIER_HZ[self.band_preset]:
            raise ScenarioError(
                f"scenario.carrier_hz: conflicts with preset {self.band_preset!r}, "
                "which fixes the carrier")
        _check_finite(self, "scenario")
        if self.carrier_hz <= 0:
            raise ScenarioError("scenario.carrier_hz: must be positive")
        try:
            _check_count(self.n_antennas)
        except ValueError as err:
            rule = str(err).removeprefix("n_antennas ")
            raise ScenarioError(f"scenario.n_antennas: {rule}") from None
        object.__setattr__(self, "tau_db", _threshold("scenario.tau_db", self.tau_db))
        object.__setattr__(self, "tau_list_db", tuple(
            _threshold("scenario.tau_list_db", t) for t in self.tau_list_db))
        if self.dbar <= 0:
            raise ScenarioError("scenario.dbar: must be positive")
        if not (abs(self.theta_deg) < 90):
            raise ScenarioError("scenario.theta_deg: must satisfy |theta| < 90")
        if not (0 < abs(self.theta_worst_deg) < 90):
            raise ScenarioError("scenario.theta_worst_deg: must satisfy 0 < |theta| < 90")
        # gain-cuts sweeps each cut across the grid's other extent
        _check_cutoff("cuts.gamma1_values", self.cuts.gamma1_values, self.grid.gamma2_max)
        _check_cutoff("cuts.gamma2_values", self.cuts.gamma2_values, self.grid.gamma1_max)

    @property
    def theta_rad(self) -> float:
        return math.radians(self.theta_deg)

    @property
    def theta_worst_rad(self) -> float:
        return math.radians(self.theta_worst_deg)

    @property
    def taus(self) -> tuple:
        return self.tau_list_db or (self.tau_db,)


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


_SECTIONS = {"scenario": Scenario, "sweep": SweepSpec, "grid": GridSpec, "cuts": CutSpec}
_KNOWN = {section: {key for _, key in _keys(cls)} for section, cls in _SECTIONS.items()}
_KNOWN["scenario"].add("schema_version")


def _read(raw: dict, section: str, cls, linear: bool = False, **given) -> dict:
    """Keyword arguments for cls from its section, each key's text converted
    by its field's type (a tau as linear with ``linear``).  An absent key
    keeps the field default; a field without one is required unless ``given``."""
    values = dict(given)
    for f, key in _keys(cls):
        text = raw.get(section, {}).get(key)
        if f.name not in given and text is not None:
            values[f.name] = _convert(f.type, f"{section}.{key}", text, linear)
        elif f.name not in given and f.default is MISSING:
            raise ScenarioError(f"{section}.{key}: required key is missing")
    return values


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


def parse_scenario(text: str, overrides: dict | None = None,
                   taus_are_linear: bool = False) -> Scenario:
    """Parse and validate a scenario document.

    ``overrides`` maps ``key`` (of the [scenario] section) or
    ``section.key`` to replacement raw values; they are applied before
    validation, so every constraint still holds for the merged result.
    With ``taus_are_linear`` the tau values in the document are read as
    linear gains in (0, 1): each ``ThresholdSpec`` keeps that value as
    ``tau_linear`` and derives ``tau_db`` from it.
    """
    raw = _raw_sections(text)
    for spec, value in (overrides or {}).items():
        section, _, key = spec.rpartition(".")
        section = section or "scenario"
        if section not in _KNOWN or key not in _KNOWN[section]:
            raise ScenarioError(f"{section}.{key}: unknown override key")
        raw.setdefault(section, {})[key] = value

    doc = raw["scenario"]
    if "schema_version" not in doc:
        raise ScenarioError("scenario.schema_version: required key is missing")
    version = _convert("int", "scenario.schema_version", doc["schema_version"])
    if version != SCHEMA_VERSION:
        raise ScenarioError(f"scenario.schema_version: unsupported version {version}")

    # carrier_hz is given iff the preset is custom; n260 and n261 fix it
    preset, given = doc.get("preset"), {}
    if "carrier_hz" not in doc:
        if preset == "custom":
            raise ScenarioError("scenario.carrier_hz: required for preset 'custom'")
        given["carrier_hz"] = PRESET_CARRIER_HZ.get(preset)
    elif preset in PRESET_CARRIER_HZ:
        raise ScenarioError(
            f"scenario.carrier_hz: conflicts with preset {preset!r}, which fixes the carrier")
    values = _read(raw, "scenario", Scenario, taus_are_linear, **given)
    return Scenario(
        **values,
        sweep=SweepSpec(**_read(raw, "sweep", SweepSpec)) if "sweep" in raw else None,
        grid=GridSpec(**_read(raw, "grid", GridSpec)),
        cuts=CutSpec(**_read(raw, "cuts", CutSpec)),
    )


def _key_text(value) -> str:
    """A key's value as document text; a threshold as its dB echo."""
    if isinstance(value, (str, tuple)):
        return value if isinstance(value, str) else ", ".join(map(_key_text, value))
    return repr(value.tau_db if isinstance(value, ThresholdSpec) else value)


_EMIT_BLOCK_ROWS = 2048


@cache
def _tables():
    """Built on first use: 4-digit groups as ASCII (as is, and with trailing, leading but
    the last, or leading zeros NUL); for k = -4..16 the least double >= 10**k (from Python
    ints; 1e-1..1e-4 round up) and the text ahead of a cell's digits; 10.0**k to k = 20
    and 10**k to k = 16."""
    d = (np.arange(10_000)[:, None] // [1000, 100, 10, 1] % 10).astype(np.uint8)
    seen, after = (np.logical_or.accumulate(z, axis=1) for z in (d > 0, d[:, ::-1] > 0))
    but_last = seen | (np.arange(4) == 3)
    groups = np.concatenate([(d + 48) * k for k in (1, after[:, ::-1], but_last, seen)])
    tens = [float(10 ** k) if k >= 0 else 1 / 10 ** -k for k in range(-4, 17)]  # int / int rounds
    head = [s + (b"0." + b"0" * (-e - 1) if e < 0 else b"")
            for e in range(-4, 17) for s in (b"", b"-")]
    return (groups.view("<u4").ravel(), np.array(tens),
            np.frombuffer(b"".join(s.ljust(8, b"\0") for s in head), "<u8"),
            np.array([float(10 ** k) for k in range(21)]), np.array([10 ** k for k in range(17)]))


def _digits(v, k: int = 0, lead: bool = True) -> list:
    """Integers 0 <= v < 10**(4k) as k arrays of 4 ASCII digits (k = 0: as many as
    v needs); NUL for leading zeros but the last with ``lead``, else for trailing ones."""
    table, parts, k = _tables()[0], [], k or -(-len(str(v.max())) // 4)
    for j in range(k - 1, 0, -1):
        parts.append(v // 10 ** (4 * j))
        v = v - parts[-1] * 10 ** (4 * j)
    parts, blank = [g.astype(np.int64) for g in (*parts, v)], True
    for j in range(k) if lead else range(k - 1, -1, -1):
        at = (20_000 + 10_000 * (j < k - 1)) if lead else 10_000
        parts[j], blank = np.take(table, parts[j] + at * blank), blank & (parts[j] == 0)
    return parts


def _float_cells(x: np.ndarray) -> tuple:
    """``repr(float(v))`` for a float column block: pieces (1-D arrays whose
    bytes, row by row with NULs dropped, are the cells) and the cells left to
    ``repr``: those it writes in exponent form, inf and every v != 0 outside
    1e-4 <= |v| < 1e16.  In there, |v| * 10**(16 - q) = big + frac
    (10**16 <= big < 10**17) by a Dekker product, exact as 10**(16 - q) <= 1e20
    is a double; the digits are those of the multiple of 100, 10 or 1 nearest
    to it in the round-trip interval (closed for an even mantissa; a tie to
    the even digit)."""
    _, tens, heads, scale, pow10 = _tables()
    a = np.abs(x.astype(np.float64))
    bits, zero = a.view(np.int64), a == 0
    bad = ~((a >= 1e-4) & (a < 1e16) | zero)
    a[bad | zero] = 1.5
    q = np.clip(np.floor(np.log10(a)), -4, 15).astype(np.int64)
    q += (a >= np.take(tens, q + 5)).astype(np.int64) - (a < np.take(tens, q + 4))
    ph = np.take(scale, 16 - q)
    p = a * ph
    ahi, phi = (c - (c - v) for v, c in ((a, a * 134217729.0), (ph, ph * 134217729.0)))
    err = ahi * phi - p + ahi * (ph - phi) + (a - ahi) * phi + (a - ahi) * (ph - phi)
    big, frac = p.astype(np.int64) + np.floor(err).astype(np.int64), err - np.floor(err)
    # half-gaps to the next doubles; d - h < tau: d < h, or d <= h if even
    h = ((bits & 0x7FF0000000000000) - (53 << 52)).view(np.float64) * ph
    h_lo = h * (1.0 - 0.5 * ((bits & (2 ** 52 - 1)) == 0))
    tau = ((bits & 1) == 0) * 1e-300
    hi = big // 100
    m = (big - hi * 100).astype(np.float64)
    m10 = m - 10 * np.floor(m * 0.1)
    c = np.rint(m + frac)
    even = ((big // 10 & 1) == 0) * 1e-300
    for r, base, step, tie in ((m10 + frac, m - m10, 10, even), (m + frac, 0, 100, 0)):
        ok_dn, ok_up = r - h_lo < tau, step - r - h < tau
        c = np.where(ok_dn | ok_up, base + step * ~(ok_dn & (r - step / 2 < tie)), c)
    # N < 10**17: 10**(q + 1) is a double or rounds up to one, so never reads back as v
    N = (hi * 100 + c.astype(np.int64)) * ~zero
    # A, B: the digits ahead of the point (q + 1 if q >= 0) and after it
    fixed = q >= 0
    A, B = np.divmod(N, np.take(pow10, 16 - q * fixed))
    B *= np.take(pow10, q * fixed)
    dot = fixed * np.uint16(46) + (fixed & (B == 0)) * np.uint16(0x3000)
    return ([np.take(heads, 2 * q + 8 + np.signbit(x)), *_digits(A, lead=True), dot,
             *_digits(B, 4, False)], bad)


def _int_cells(v: np.ndarray) -> tuple:
    """``repr(int(v))`` of each v of an integer column block, as pieces."""
    mag = v.astype(np.uint64)
    mag[v < 0] = 0 - mag[v < 0]
    return [(v < 0) * np.uint8(45), *_digits(mag, lead=True)], np.zeros_like(v, bool)


def _rows(pieces: list, n: int, buf: np.ndarray) -> np.ndarray:
    """n rows of the pieces' bytes side by side, in ``buf`` if large enough."""
    width = sum(p.itemsize for p in pieces)
    buf = buf if buf.size >= n * width else np.empty(n * width, np.uint8)
    rows, at = buf[:n * width].reshape(n, width), 0
    for p in pieces:
        rows[:, at:at + p.itemsize].view(p.dtype)[:, 0] = p
        at += p.itemsize
    return rows


def emit_csv(table: SweepTable) -> bytes:
    """Serialize a table deterministically: metadata, header, rows, LF-only.

    Each cell is ``repr`` of its Python number, formatted in numpy a column
    block at a time (``repr`` itself for a float it writes in exponent form)
    into one reused block of NUL-padded rows, written NULs dropped.
    Each block is checked for NaN/-inf (``ValueError``) first, as a column
    may have been written to since the table was built.
    """
    head = [f"# {key} = {value}" for key, value in table.metadata] + [",".join(table.columns)]
    out = io.BytesIO()
    out.write(("\n".join(head) + "\n").encode("utf-8"))
    buf = np.zeros(0, np.uint8)
    for i in range(0, len(table.data[0]) if table.data else 0, _EMIT_BLOCK_ROWS):
        pieces = []
        for k, col in enumerate(table.data):
            block = col[i:i + _EMIT_BLOCK_ROWS]
            _check_values(block)
            cells, bad = (_float_cells if block.dtype.kind == "f" else _int_cells)(block)
            cells = [c for c in cells if c.any()]
            if bad.any():  # the longest repr of a float64 has 24 characters
                text = np.zeros(len(block), "S24")
                text[bad] = [repr(v).encode() for v in block[bad].tolist()]
                cells = [c * ~bad for c in cells] + [text]
            pieces += [*cells, np.uint8(10 if k == len(table.data) - 1 else 44)]
        rows = _rows(pieces, len(block), buf)
        buf = rows.base
        out.write(rows.tobytes().translate(None, b"\0"))
    return out.getvalue()
