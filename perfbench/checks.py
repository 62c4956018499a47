"""Output checks for benchmark jobs, run outside the timed intervals.

Every check returns a list of failure reasons; an empty list means the
output is correct.  Independent references are used where they exist:
mpmath's Fresnel integrals for gain values, the far-field limit
sin(pi p)/(pi p) for the threshold products, the paper's 0.5044/0.3654
contour anchors, exact 2x ``B_max`` scaling between apertures that differ
by a factor of two, and the evenness of G in gamma1, which lets every
cell of a symmetric grid be checked against its mirror.
"""

from __future__ import annotations

import functools
import math

import mpmath

from gen import ANCHORS_DB, SPEED_OF_LIGHT_M_S, db_to_linear, far_field_product

GAIN_TOL = 1e-9        # linear gain vs the mpmath reference
MIRROR_TOL = 1e-11     # linear gain at gamma1 vs -gamma1
ANCHOR_TOL = 0.005     # contour anchors, as in the acceptance suite
EDGE_REL = 1e-6        # offsets this close to B_max/2 may be either side
RAYLEIGH_COEFF = 0.367
MAX_REASONS = 5


class CheckError(Exception):
    """The output cannot be read as the expected table."""


def gain_mp(gamma1: float, gamma2: float) -> float:
    """|[C(g1+g2)-C(g1-g2)] + j[S(g1+g2)-S(g1-g2)]| / (2 g2) in 30-digit arithmetic."""
    with mpmath.workdps(30):
        g1, g2 = mpmath.mpf(gamma1), mpmath.mpf(gamma2)
        dc = mpmath.fresnelc(g1 + g2) - mpmath.fresnelc(g1 - g2)
        ds = mpmath.fresnels(g1 + g2) - mpmath.fresnels(g1 - g2)
        return float(mpmath.sqrt(dc * dc + ds * ds) / (2 * g2))


def read_csv(path, header: tuple):
    """Metadata dict and float columns of a nearband CSV with the given header.

    Cells must be shortest round-trip decimals (integers in integer
    columns, ``inf`` for the sentinel); NaN and -inf are rejected.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    if not text.endswith("\n") or "\r" in text:
        raise CheckError("CSV must end with LF and contain no CR")
    lines = text[:-1].split("\n")
    meta, k = {}, 0
    while k < len(lines) and lines[k].startswith("# "):
        key, sep, value = lines[k][2:].partition(" = ")
        if not sep:
            raise CheckError(f"bad metadata line {lines[k]!r}")
        meta[key] = value
        k += 1
    if k == len(lines) or tuple(lines[k].split(",")) != header:
        raise CheckError(f"header missing or not {','.join(header)}")
    body = lines[k + 1:]
    width = len(header)
    cells = ",".join(body).split(",") if body else []
    if len(cells) != width * len(body):
        bad = next(i for i, ln in enumerate(body) if ln.count(",") != width - 1)
        raise CheckError(f"row {bad} does not have {width} cells: {body[bad]!r}")
    try:
        values = list(map(float, cells))
    except ValueError:
        bad = next(i for i, c in enumerate(cells) if not _is_float(c))
        raise CheckError(f"row {bad // width} has a non-numeric cell: {cells[bad]!r}") from None
    for c in range(width):
        # every distinct cell of a low-cardinality column, and every 7th
        # cell of the others: a formatting change shows in either
        column = cells[c::width]
        distinct = set(column)
        for text in distinct if len(distinct) <= 10_000 else set(column[::7]):
            value = float(text)
            if text != repr(value) and not (value.is_integer() and text == str(int(value))):
                raise CheckError(f"column {header[c]} has a non-canonical cell: {text!r}")
    if any(v != v for v in values) or (values and min(values) == -math.inf):
        raise CheckError("table holds NaN or -inf")
    return meta, [values[c::width] for c in range(width)]


def read_rows(path, header: tuple) -> list:
    return list(zip(*read_csv(path, header)[1]))


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _guard(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            reasons = fn(*args, **kwargs)
        except (OSError, CheckError) as exc:
            reasons = [f"{type(exc).__name__}: {exc}"]
        return reasons[:MAX_REASONS]
    return wrapper


def _increasing(values) -> bool:
    return all(a < b for a, b in zip(values, values[1:]))


def _check_gains_db(gains_db: list, errs: list):
    if gains_db and max(gains_db) > 1e-9:
        errs.append(f"gain_db {max(gains_db)!r} above 0 dB")


def _mirror(linear, g1s, stride: int, span: float, errs: list, where: str):
    """Gain is even in gamma1: row blocks i and n-1-i must agree."""
    n = len(g1s)
    for i in range(n // 2):
        m = n - 1 - i
        if abs(g1s[i] + g1s[m]) > 1e-12 * span:
            errs.append(f"{where}: gamma1 grid not symmetric at {i}")
            return
        for j in range(stride):
            a, b = linear[i * stride + j], linear[m * stride + j]
            if abs(a - b) > MIRROR_TOL:
                errs.append(f"{where}: G(gamma1={g1s[i]!r}) != G(gamma1={g1s[m]!r}) "
                            f"at column {j}: {a!r} vs {b!r}")
                return


def _spot(points, errs: list, where: str):
    """points: (gamma1, gamma2, expected linear gain)."""
    for g1, g2, want in points:
        ref = gain_mp(g1, g2)
        if abs(ref - want) > GAIN_TOL:
            errs.append(f"{where}: G({g1!r}, {g2!r}) = {want!r}, mpmath {ref!r}")


@_guard
def check_gain_surface(path, p: dict, rng) -> list:
    """Grid structure, every cell against its gamma1 mirror, the gamma1 = 0
    column and seeded samples against mpmath."""
    _, (g1col, g2col, db) = read_csv(path, ("gamma1", "gamma2", "gain_db"))
    n1, n2 = p["gamma1_points"], p["gamma2_points"]
    g1max, g2max = p["gamma1_max"], p["gamma2_max"]
    if len(db) != n1 * n2:
        return [f"{len(db)} rows, expected {n1 * n2}"]
    errs = []
    g2s, g1s = g2col[:n2], g1col[::n2]
    if not (_increasing(g2s) and g2s[0] == g2max / n2 and g2s[-1] == g2max):
        errs.append("gamma2 axis is not the expected increasing grid")
    if not (_increasing(g1s) and g1s[0] == -g1max and g1s[-1] == g1max):
        errs.append("gamma1 axis is not the expected increasing grid")
    if g2col != g2s * n1 or g1col != [g for g in g1s for _ in range(n2)]:
        errs.append("rows do not repeat the (gamma1, gamma2) grid")
    _check_gains_db(db, errs)
    if errs:
        return errs
    linear = [10.0 ** (x / 10.0) for x in db]
    _mirror(linear, g1s, n2, g1max, errs, "gain-surface")
    if n1 % 2:
        c = n1 // 2
        _spot([(g1s[c], g2s[j], linear[c * n2 + j]) for j in range(n2)], errs,
              "gain-surface centre column")
    picks = rng.sample(range(len(db)), 24)
    _spot([(g1col[k], g2col[k], linear[k]) for k in picks], errs, "gain-surface")
    return errs


@_guard
def check_gain_cuts(path, p: dict, rng) -> list:
    """Cut layout and axes, mirror symmetry of the fixed-gamma2 cuts, and
    seeded samples of every cut against mpmath."""
    meta, cols = read_csv(path, ("cut_id", "gamma1", "gamma2", "gain_db"))
    npts = p["cut_points"]
    cuts = [("gamma1", v) for v in p["gamma1_values"]] + [("gamma2", v) for v in p["gamma2_values"]]
    if len(cols[0]) != npts * len(cuts):
        return [f"{len(cols[0])} rows, expected {npts * len(cuts)}"]
    errs = []
    _check_gains_db(cols[3], errs)
    for k, (fixed, value) in enumerate(cuts):
        ids, g1c, g2c, db = (col[k * npts:(k + 1) * npts] for col in cols)
        label = meta.get(f"cut.{k}", "")
        if not label.startswith(f"fixed {fixed} = {value!r},"):
            errs.append(f"cut.{k} metadata {label!r} does not name {fixed} = {value!r}")
        fixed_vals, swept = (g1c, g2c) if fixed == "gamma1" else (g2c, g1c)
        lo, hi = (p["gamma2_max"] / npts, p["gamma2_max"]) if fixed == "gamma1" \
            else (-p["gamma1_max"], p["gamma1_max"])
        if ids != [k] * npts or fixed_vals != [value] * npts:
            errs.append(f"cut {k}: wrong cut_id or fixed {fixed}")
        if not (_increasing(swept) and swept[0] == lo and swept[-1] == hi):
            errs.append(f"cut {k}: swept axis is not the expected grid")
        if errs:
            return errs
        linear = [10.0 ** (x / 10.0) for x in db]
        if fixed == "gamma2":
            _mirror(linear, swept, 1, p["gamma1_max"], errs, f"cut {k}")
        picks = rng.sample(range(npts), 12)
        _spot([(g1c[j], g2c[j], linear[j]) for j in picks], errs, f"cut {k}")
    return errs


def _check_product(tau_db: float, pm: float, errs: list, where: str):
    ff = far_field_product(db_to_linear(tau_db))
    if not (math.isfinite(pm) and pm >= ff * (1.0 - EDGE_REL)):
        errs.append(f"{where}: product_max {pm!r} below the far-field limit {ff!r} "
                    f"at {tau_db!r} dB")
    for anchor_db, anchor in ANCHORS_DB.items():
        if abs(tau_db - anchor_db) < 1e-9 and abs(pm - anchor) > ANCHOR_TOL:
            errs.append(f"{where}: product_max({anchor_db} dB) = {pm!r}, "
                        f"anchor {anchor} +- {ANCHOR_TOL}")


def contour_products(path) -> dict:
    """product_max per tau_db as written by a contours job."""
    rows = read_rows(path, ("tau_db", "gamma1", "gamma2", "product", "product_max"))
    return {r[0]: r[4] for r in rows}


@_guard
def check_contours(path, p: dict, rng) -> list:
    """Boundary points lie on G = tau (mpmath samples), products are
    consistent, and product_max meets the anchors and the far-field bound."""
    rows = read_rows(path, ("tau_db", "gamma1", "gamma2", "product", "product_max"))
    errs = []
    for tau_db in p["taus_db"]:
        block = [r for r in rows if r[0] == tau_db]
        if not block:
            errs.append(f"no boundary rows for tau {tau_db!r} dB")
            continue
        pm = block[0][4]
        if any(r[4] != pm for r in block):
            errs.append(f"product_max varies within tau {tau_db!r} dB")
        if not _increasing([r[2] for r in block]):
            errs.append(f"gamma2 not increasing within tau {tau_db!r} dB")
        for r in block:
            if not (r[1] > 0 and r[2] > 0 and r[3] == r[1] * r[2]
                    and r[3] <= pm * (1.0 + 1e-9)):
                errs.append(f"inconsistent boundary row {r!r}")
                break
        _check_product(tau_db, pm, errs, "contours")
        tau = db_to_linear(tau_db)
        picks = rng.sample(range(len(block)), min(8, len(block)))
        _spot([(block[j][1], block[j][2], tau) for j in picks], errs,
              f"contour {tau_db!r} dB")
    if len(rows) != sum(1 for r in rows if r[0] in p["taus_db"]):
        errs.append("rows for a tau outside the scenario")
    return errs


@_guard
def check_bmax_curve(path, p: dict) -> list:
    """Sweep and preset layout, exact 2x B_max between N = 64 and 128 at
    each carrier, one implied product_max per tau, monotone in tau."""
    rows = read_rows(path, ("tau_db", "aperture_m", "carrier_hz", "bmax_hz"))
    lo, hi, npts = p["bmax_sweep"]
    presets = ((128, 28e9), (64, 28e9), (128, 39e9), (64, 39e9))
    if len(rows) != npts * len(presets):
        return [f"{len(rows)} rows, expected {npts * len(presets)}"]
    errs, last_pm = [], math.inf
    sin_w = abs(math.sin(math.radians(p["theta_worst_deg"])))
    for k in range(npts):
        want_tau = lo + (hi - lo) * k / (npts - 1)
        block = rows[k * len(presets):(k + 1) * len(presets)]
        tau_db = block[0][0]
        if abs(tau_db - want_tau) > 1e-12 or any(r[0] != tau_db for r in block):
            errs.append(f"sweep point {k}: tau {tau_db!r}, expected {want_tau!r}")
            break
        by = {}
        for (n, fc), r in zip(presets, block):
            aperture = n * p["dbar"] * SPEED_OF_LIGHT_M_S / fc
            if r[2] != fc or abs(r[1] - aperture) > 1e-12 * aperture:
                errs.append(f"tau {tau_db!r}: preset N={n} at {fc:g} Hz has wrong aperture/carrier")
            if not (math.isfinite(r[3]) and r[3] > 0):
                errs.append(f"tau {tau_db!r}: bmax {r[3]!r} not positive and finite")
            by[n, fc] = r
        if errs:
            break
        for fc in (28e9, 39e9):
            if by[64, fc][3] != 2.0 * by[128, fc][3]:
                errs.append(f"tau {tau_db!r} at {fc:g} Hz: B_max(N=64) = {by[64, fc][3]!r} "
                            f"is not exactly 2x B_max(N=128) = {by[128, fc][3]!r}")
        pms = [r[3] * r[1] * sin_w / (2.0 * SPEED_OF_LIGHT_M_S) for r in block]
        if max(pms) - min(pms) > 1e-12 * max(pms):
            errs.append(f"tau {tau_db!r}: presets imply different product_max {pms!r}")
        _check_product(tau_db, pms[0], errs, "bmax-curve")
        if not pms[0] < last_pm:
            errs.append(f"tau {tau_db!r}: implied product_max does not fall as tau rises")
        last_pm = pms[0]
    return errs


def band_is_inf_ok(f_hz: float, limit_hz: float, is_inf: bool) -> bool:
    """inf exactly when |f| exceeds B_max/2, except within EDGE_REL of it."""
    if abs(abs(f_hz) - limit_hz) <= EDGE_REL * limit_hz:
        return True
    return is_inf == (abs(f_hz) > limit_hz)


@_guard
def check_band_map(path, p: dict, products: dict) -> list:
    """Sweep layout, reference distances, and inf exactly past B_max/2, where
    B_max comes from the product_max the contours job wrote for each tau."""
    rows = read_rows(path, ("f_hz", "tau_db", "band_m", "d_erd_m", "d_fa_m"))
    lo, hi, npts = p["band_sweep"]
    taus = p["taus_db"]
    if len(rows) != npts * len(taus):
        return [f"{len(rows)} rows, expected {npts * len(taus)}"]
    missing = [t for t in taus if t not in products]
    if missing:
        return [f"no product_max for tau {missing!r} dB to derive B_max from"]
    errs = []
    fc = p["carrier_hz"]
    lbar = p["n_antennas"] * p["dbar"]
    theta = math.radians(p["theta_deg"])
    d_fa = 2.0 * lbar * lbar * SPEED_OF_LIGHT_M_S / fc
    d_erd = RAYLEIGH_COEFF * math.cos(theta) ** 2 * d_fa
    limit = {t: products[t] * fc / (lbar * abs(math.sin(theta))) for t in taus}
    for k, r in enumerate(rows):
        f_want = lo + (hi - lo) * (k // len(taus)) / (npts - 1)
        tau_db = taus[k % len(taus)]
        if abs(r[0] - f_want) > 1e-12 * hi or r[1] != tau_db:
            errs.append(f"row {k}: (f, tau) = ({r[0]!r}, {r[1]!r}), expected "
                        f"({f_want!r}, {tau_db!r})")
            break
        if abs(r[3] - d_erd) > 1e-12 * d_erd or abs(r[4] - d_fa) > 1e-12 * d_fa:
            errs.append(f"row {k}: reference distances {r[3]!r}, {r[4]!r}, expected "
                        f"{d_erd!r}, {d_fa!r}")
        if not (math.isinf(r[2]) or r[2] > 0):
            errs.append(f"row {k}: band distance {r[2]!r} is not positive")
        if not band_is_inf_ok(r[0], limit[tau_db], math.isinf(r[2])):
            errs.append(f"row {k}: band_m = {r[2]!r} at f = {r[0]!r} Hz, tau {tau_db!r} dB, "
                        f"B_max/2 = {limit[tau_db]!r} Hz")
    return errs


def check_verify(stdout: str) -> list:
    lines = stdout.strip().splitlines()
    if not lines:
        return ["verify printed nothing"]
    *checks, summary = lines
    failed = [ln for ln in checks if not ln.startswith("PASS ")]
    n = len(checks)
    if failed or summary != f"{n}/{n} checks passed":
        return [f"verify: {ln}" for ln in failed] + [f"verify summary {summary!r}"]
    return []


@_guard
def check_svg(path) -> list:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if not (text.startswith("<svg ") and text.endswith("</svg>\n") and "<polyline" in text):
        return [f"{path}: not a complete SVG line chart"]
    return []


def check_library_config(c: dict) -> list:
    """Gain-chain tolerances of ``verify``, B_max anchors, and inf exactly
    past B_max/2 for one library-loop configuration record."""
    errs = []
    n = c["n"]
    exact, fsum, closed = c["exact"], c["fsum"], c["closed"]
    if not all(0.0 <= g <= 1.0 + 1e-12 for g in (exact, fsum, closed)):
        errs.append(f"gain outside [0, 1]: {exact!r}, {fsum!r}, {closed!r}")
    if abs(exact - fsum) > 0.01:
        errs.append(f"|gain_exact - gain_fresnel_sum| = {abs(exact - fsum):.3e} > 0.01")
    tol = max(0.02, 5.0 / n)
    if abs(fsum - closed) > tol:
        errs.append(f"|gain_fresnel_sum - gain_closed_form| = {abs(fsum - closed):.3e} > {tol:.3g}")
    bmax = c["bmax"]
    if not (math.isfinite(bmax) and bmax > 0):
        return errs + [f"bmax {bmax!r} not positive and finite"]
    lbar = n * c["dbar"]
    sin_t = abs(math.sin(c["theta"]))
    _check_product(c["tau_db"], bmax * lbar * sin_t / (2.0 * c["fc"]), errs, "bmax")
    band = c["band"]
    if not (math.isinf(band) or band > 0):
        errs.append(f"band_distance {band!r} is not positive")
    if not band_is_inf_ok(c["f_band"], bmax / 2.0, math.isinf(band)):
        errs.append(f"band_distance = {band!r} at offset {c['f_band']!r} Hz, "
                    f"B_max/2 = {bmax / 2.0!r} Hz")
    return errs
