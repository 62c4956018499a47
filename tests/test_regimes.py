"""Regime maps and threshold inversions."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import nearband.regimes as regimes_mod
from nearband.constants import SPEED_OF_LIGHT_M_S as C
from nearband.fresnel import _gain_pq, gain_closed_form, gain_narrowband
from nearband.regimes import (
    NoCrossingError,
    Regime,
    ThresholdSpec,
    aperture_bandwidth_bound,
    band_distance,
    bmax,
    effective_rayleigh_distance,
    far_field_product,
    fraunhofer_distance,
    gamma_from_regime,
    main_lobe_boundary,
    product_max,
)

from _oracles import first_crossing_root, gain_40, sinc_threshold_root


def _db(db):
    return 10.0 ** (db / 10.0)


# ---------------------------------------------------------------------------
# the forward map
# ---------------------------------------------------------------------------

def test_gamma_map_special_cases():
    no_offset = Regime(0.0, 300.0, 0.5, 32.0, 0.7)
    assert gamma_from_regime(no_offset).gamma1 == 0.0
    broadside = Regime(0.03, 250.0, 0.5, 32.0, 0.0)
    pair = gamma_from_regime(broadside)
    assert pair.gamma1 == 0.0
    assert pair.gamma2 == pytest.approx(32.0 * math.sqrt(1.03 / 500.0), rel=1e-14)


regimes_strategy = st.builds(
    Regime,
    fbar=st.floats(min_value=-0.2, max_value=0.2).filter(lambda f: abs(f) > 1e-6),
    rbar=st.floats(min_value=1.0, max_value=1e6),
    dbar=st.just(0.5),
    lbar=st.floats(min_value=1.0, max_value=512.0),
    theta_rad=st.floats(min_value=-1.4, max_value=1.4).filter(lambda t: abs(t) > 1e-3),
)


@given(regimes_strategy)
def test_fractional_bandwidth_identity(regime):
    # |f_B lbar sin(theta)| = |2 gamma1 gamma2| with f_B = |2 fbar|
    pair = gamma_from_regime(regime)
    lhs = abs(2.0 * regime.fbar * regime.lbar * math.sin(regime.theta_rad))
    rhs = abs(2.0 * pair.gamma1 * pair.gamma2)
    assert rhs == pytest.approx(lhs, rel=1e-12, abs=1e-15)
    # gamma2^2 = lbar^2 cos^2(theta) (1 + fbar) / (2 rbar)
    cos_t = math.cos(regime.theta_rad)
    g2_sq = regime.lbar**2 * cos_t * cos_t * (1.0 + regime.fbar) / (2.0 * regime.rbar)
    assert pair.gamma2**2 == pytest.approx(g2_sq, rel=1e-12)


def test_regime_validation():
    with pytest.raises(ValueError):
        Regime(-1.5, 10.0, 0.5, 32.0, 0.0)
    with pytest.raises(ValueError):
        Regime(0.0, -1.0, 0.5, 32.0, 0.0)
    with pytest.raises(ValueError):
        Regime(0.0, 10.0, 0.5, 0.25, 0.0)
    with pytest.raises(ValueError):
        Regime(0.0, 10.0, 0.5, 32.0, 2.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("field", ["fbar", "rbar", "dbar", "lbar", "theta_rad"])
def test_regime_rejects_non_finite(field, bad):
    values = dict(fbar=0.1, rbar=10.0, dbar=0.5, lbar=64.0, theta_rad=0.5)
    values[field] = bad
    with pytest.raises(ValueError, match=f"finite {field}"):
        Regime(**values)


@pytest.mark.parametrize("fn, args, name", [
    pytest.param(bmax, (math.inf, 0.8, 1.0), "aperture_m", id="bmax-aperture_m"),
    pytest.param(bmax, (math.nan, 0.8, 1.0), "aperture_m", id="bmax-aperture_m-nan"),
    pytest.param(bmax, (0.3, 0.8, math.nan), "theta_worst_rad", id="bmax-theta_worst_rad"),
    pytest.param(aperture_bandwidth_bound, (0.8, math.inf), "theta_worst_rad",
                 id="bound-theta_worst_rad"),
    pytest.param(aperture_bandwidth_bound, (math.nan, 0.0), "tau_linear",
                 id="bound-tau_linear"),
    pytest.param(band_distance, (math.nan, 39e9, 0.8, 0.3, 0.5), "f_hz", id="band-f_hz"),
    pytest.param(band_distance, (1e8, math.inf, 0.8, 0.3, 0.5), "fc_hz", id="band-fc_hz"),
    pytest.param(band_distance, (1e8, 39e9, math.nan, 0.3, 0.5), "tau_linear",
                 id="band-tau_linear"),
    pytest.param(band_distance, (1e8, 39e9, 0.8, math.inf, 0.5), "aperture_m",
                 id="band-aperture_m"),
    pytest.param(band_distance, (1e8, 39e9, 0.8, 0.3, -math.inf), "theta_rad",
                 id="band-theta_rad"),
    # band_distance, and the closed-form distances, reject out-of-range
    # values as well as non-finite ones
    pytest.param(band_distance, (-2 * 39e9, 39e9, 0.8, 0.3, 0.5), "f_hz", id="band-f_hz-offset"),
    pytest.param(fraunhofer_distance, (64.0, -0.01), "wavelength_m", id="fa-wavelength_m"),
    pytest.param(fraunhofer_distance, (-64.0, 0.01), "lbar", id="fa-lbar"),
    pytest.param(fraunhofer_distance, (math.nan, 0.01), "lbar", id="fa-lbar-nan"),
    pytest.param(effective_rayleigh_distance, (2.0, 64.0, 0.01), "theta_rad", id="erd-theta_rad"),
    pytest.param(effective_rayleigh_distance, (0.5, 64.0, 0.0), "wavelength_m",
                 id="erd-wavelength_m"),
    # the gain kernel's own errors name gamma2 too, so these match the message
    pytest.param(main_lobe_boundary, (0.8, np.array([0.5, 0.0])), "gamma2 must be positive",
                 id="boundary-gamma2-zero"),
    pytest.param(main_lobe_boundary, (0.8, np.array([-0.5])), "gamma2 must be positive",
                 id="boundary-gamma2-negative"),
    pytest.param(main_lobe_boundary, (0.8, np.array([0.5, math.nan])), "gamma2 must be positive",
                 id="boundary-gamma2-nan"),
    pytest.param(main_lobe_boundary, (0.8, np.array([math.inf])), "gamma2 must be positive",
                 id="boundary-gamma2-inf"),
])
def test_threshold_inversions_reject_non_finite(fn, args, name):
    with pytest.raises(ValueError, match=name):
        fn(*args)


def test_threshold_spec():
    # the given value is kept exactly; the other unit is derived once
    assert ThresholdSpec.from_db(-1.0) == ThresholdSpec(_db(-1.0), -1.0)
    assert ThresholdSpec.from_linear(0.3) == ThresholdSpec(0.3, 10.0 * math.log10(0.3))
    for bad_db in (0.0, -1e-17, 3.0, 1e6, -4000.0, math.nan):
        with pytest.raises(ValueError, match="ThresholdSpec"):
            ThresholdSpec.from_db(bad_db)
    for bad in (0.0, 1.0, 1.5, -0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="ThresholdSpec"):
            ThresholdSpec.from_linear(bad)
    with pytest.raises(ValueError, match="ThresholdSpec"):
        ThresholdSpec(1.0, 0.0)


# ---------------------------------------------------------------------------
# product_max and the derived bounds
# ---------------------------------------------------------------------------

def test_product_max_reference_constants():
    assert product_max(_db(-2.0)) == pytest.approx(0.5044, abs=0.005)
    assert product_max(_db(-1.0)) == pytest.approx(0.3654, abs=0.005)



# Exact bits of the solver's results; a change that moves any of them
# changes the numerics, not just the speed.  Above -2.81 dB they are the
# far-field root, each within 1.8e-16 relative of a 40-digit mpmath root.
# At -3 dB the value is a first crossing at the column _MINUS_3_DB_GAMMA2,
# held to its 40-digit root by test_product_max_minus_3_db_against_reference.
@pytest.mark.parametrize("tau_db, bits", [
    (-0.2, "0x1.5517768e70b4bp-3"),
    (-1.0, "0x1.763cd4fa4b5c7p-2"),
    (-2.0, "0x1.0245b72068da4p-1"),
    (-3.0, "0x1.398ad0b3b6141p-1"),
])
def test_product_max_bits_pinned(tau_db, bits):
    assert product_max(_db(tau_db)) == float.fromhex(bits)


# the gamma2 column whose first crossing is product_max at -3 dB
_MINUS_3_DB_GAMMA2 = float.fromhex("0x1.4062879540d6bp+0")


def test_product_max_minus_3_db_against_reference():
    tau = _db(-3.0)
    value = product_max(tau)
    assert _products(tau, np.array([_MINUS_3_DB_GAMMA2]))[0] == value
    root = first_crossing_root(tau, _MINUS_3_DB_GAMMA2, value - 1e-9, value + 1e-9)
    assert abs(value - root) <= 4 * math.ulp(root)


def test_product_max_against_sinc_oracle():
    # the boundary product approaches the far-field squint root as gamma2 -> 0;
    # for these thresholds that edge is where the supremum lives
    for db in np.arange(-2.8, -0.05, 0.1):
        tau = _db(db)
        root = sinc_threshold_root(tau)
        assert abs(product_max(tau) - root) <= 4 * math.ulp(root)
        assert product_max(tau) == far_field_product(tau)
    # at deeper thresholds the region bulges at moderate gamma2 and the
    # supremum exceeds the far-field limit; the root is then a lower bound
    tau3 = _db(-3.0)
    assert product_max(tau3) >= sinc_threshold_root(tau3) - 1e-9
    assert product_max(tau3) > 1.01 * far_field_product(tau3)


def test_far_field_product_within_few_ulp():
    for db in np.concatenate([np.arange(-10.0, -0.05, 0.25), [-0.01, -1e-4]]):
        tau = _db(db)
        root = sinc_threshold_root(tau)
        assert abs(far_field_product(tau) - root) <= 4 * math.ulp(root)


@pytest.mark.parametrize("tau_db", [-10.0, -6.0, -2.9])
def test_product_max_never_below_far_field_root(tau_db):
    tau = _db(tau_db)
    assert product_max(tau) >= far_field_product(tau)


def test_far_field_product_domain_errors():
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="far_field_product"):
            far_field_product(bad)


def test_product_max_monotone_and_vanishing():
    taus = [_db(d) for d in (-3.0, -2.0, -1.0, -0.5, -0.1)]
    values = [product_max(t) for t in taus]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert product_max(0.9999) < 0.03


def test_product_max_domain_errors():
    with pytest.raises(ValueError):
        product_max(1.0)
    with pytest.raises(ValueError):
        product_max(0.0)


def test_product_max_deterministic():
    first = product_max(_db(-1.0))
    product_max.cache_clear()
    second = product_max(_db(-1.0))
    assert first == second


def test_product_max_covers_every_live_column():
    # at tau = 0.1 live columns reach past gamma2 = 6, where a fixed search
    # window used to end; the supremum must bound every boundary product
    g2 = np.geomspace(6.0, 10.0, 400)
    boundary = main_lobe_boundary(0.1, g2) * g2
    assert product_max(0.1) >= np.nanmax(boundary)


def test_product_max_bounds_the_per_column_region():
    # at -4.5 dB, past the live edge (gamma2 ~ 1.727), G >= tau continues as
    # a band detached from the axis; product_max bounds only the per-column
    # region, so this point's product lies above it
    tau = _db(-4.5)
    gamma2 = 2.07
    assert gain_closed_form(2.0 / gamma2, gamma2) >= tau
    assert gain_narrowband(gamma2) < tau
    assert np.isnan(main_lobe_boundary(tau, [gamma2])).all()
    assert product_max(tau) < 2.0


def test_main_lobe_boundary_contract():
    tau = _db(-1.0)
    g2 = np.geomspace(1e-3, 6.0, 64)
    g1 = main_lobe_boundary(tau, g2)
    inside = np.isfinite(g1)
    gains = gain_closed_form(g1[inside], g2[inside])
    assert np.abs(gains - tau).max() <= 1e-6
    # outside columns are the ones whose on-axis gain is already below tau
    assert not inside.all()
    with pytest.raises(ValueError):
        main_lobe_boundary(1.2, g2)


def test_aperture_bandwidth_bound():
    tau = _db(-1.0)
    bound_90 = aperture_bandwidth_bound(tau, math.radians(90))
    assert bound_90 == pytest.approx(2.0 * C * product_max(tau), rel=1e-14)
    assert bound_90 == pytest.approx(2.192e8, rel=0.01)
    assert aperture_bandwidth_bound(tau, math.radians(30)) == pytest.approx(
        2.0 * bound_90, rel=1e-12)
    assert aperture_bandwidth_bound(tau, 0.0) == math.inf
    assert aperture_bandwidth_bound(_db(-0.5), math.radians(60)) <= \
        aperture_bandwidth_bound(_db(-1.5), math.radians(60))


def test_broadside_bound_validates_threshold_first():
    # broadside makes the bound vacuous (inf), but only for a valid tau
    with pytest.raises(ValueError, match="linear gain threshold"):
        aperture_bandwidth_bound(1.5, 0.0)
    with pytest.raises(ValueError, match="linear gain threshold"):
        bmax(0.1, -3.0, 0.0)


def test_bmax_scaling_and_preset_value():
    tau = _db(-1.0)
    theta_w = math.radians(60)
    full = bmax(0.34, tau, theta_w)
    half = bmax(0.17, tau, theta_w)
    assert half == 2.0 * full
    assert full == pytest.approx(7.45e8, rel=0.01)
    taus = [_db(d) for d in (-2.0, -1.0, -0.3)]
    curve = [bmax(0.34, t, theta_w) for t in taus]
    assert curve[0] > curve[1] > curve[2]
    with pytest.raises(ValueError):
        bmax(0.0, tau, theta_w)


# ---------------------------------------------------------------------------
# band_distance
# ---------------------------------------------------------------------------

def _gain_at_distance(r_m, f_hz, fc_hz, aperture_m, theta_rad):
    # independent re-derivation through the gamma maps
    lam = C / fc_hz
    lbar = aperture_m / lam
    fbar = f_hz / fc_hz
    rbar = r_m / lam
    g2 = lbar * math.cos(theta_rad) * math.sqrt((1.0 + fbar) / (2.0 * rbar))
    g1 = -fbar * lbar * math.sin(theta_rad) / g2
    return gain_closed_form(g1, g2)


def test_band_distance_rayleigh_level():
    fc = 39e9
    lam = C / fc
    aperture = 32.0 * lam
    for theta_deg in (0.0, 30.0, 60.0):
        theta = math.radians(theta_deg)
        got = band_distance(0.0, fc, 0.95, aperture, theta)
        want = effective_rayleigh_distance(theta, 32.0, lam)
        assert got == pytest.approx(want, rel=0.02)


def test_band_distance_fraunhofer_level():
    fc = 39e9
    lam = C / fc
    aperture = 32.0 * lam
    got = band_distance(0.0, fc, 0.99317, aperture, 0.0)
    assert got == pytest.approx(fraunhofer_distance(32.0, lam), rel=0.02)


def test_band_distance_decreases_with_looser_threshold():
    fc = 39e9
    aperture = 32.0 * C / fc
    theta = math.radians(45)
    taus = (0.99, 0.97, 0.95, 0.9, 0.8)
    dists = [band_distance(0.0, fc, t, aperture, theta) for t in taus]
    assert all(a > b for a, b in zip(dists, dists[1:]))


def test_band_distance_divergence_sentinel():
    fc = 39e9
    aperture = 32.0 * C / fc
    theta = math.radians(60)
    tau = _db(-1.0)
    cap = bmax(aperture, tau, theta)
    assert math.isinf(band_distance(0.55 * cap, fc, tau, aperture, theta))
    assert math.isfinite(band_distance(0.45 * cap, fc, tau, aperture, theta))


def test_band_distance_diverges_near_endfire():
    # at 89.99 deg the large-distance gamma2 falls under the small-gamma2
    # cutoff of gain_closed_form, where the gain must still follow
    # |sinc(gamma1*gamma2)| and fall below tau past the usable bandwidth
    fc = 28e9
    aperture = 64.0 * 0.5 * C / fc
    theta = math.radians(89.99)
    tau = _db(-1.0)
    half_band = bmax(aperture, tau, theta) / 2
    assert math.isfinite(band_distance(0.5 * half_band, fc, tau, aperture, theta))
    assert math.isinf(band_distance(2.0 * half_band, fc, tau, aperture, theta))


def test_band_distance_quantifier_spot_check():
    rng = np.random.default_rng(23)
    fc = 39e9
    lam = C / fc
    checked = 0
    while checked < 50:
        n = int(rng.choice([64, 128, 256]))
        aperture = n * 0.5 * lam
        theta = float(rng.uniform(-1.2, 1.2))
        tau = float(rng.uniform(0.6, 0.99))
        cap = bmax(aperture, tau, theta) if theta else math.inf
        f = float(rng.uniform(-0.4, 0.4)) * (cap / 2 if math.isfinite(cap) else 0.2 * fc)
        dist = band_distance(f, fc, tau, aperture, theta)
        if not math.isfinite(dist):
            continue
        assert _gain_at_distance(2.0 * dist, f, fc, aperture, theta) >= tau - 1e-9
        checked += 1


def test_band_distance_validation():
    fc = 39e9
    aperture = 0.2
    with pytest.raises(ValueError):
        band_distance(0.0, fc, 1.5, aperture, 0.0)
    with pytest.raises(ValueError):
        band_distance(-2 * fc, fc, 0.9, aperture, 0.0)
    with pytest.raises(ValueError):
        band_distance(0.0, -1.0, 0.9, aperture, 0.0)
    with pytest.raises(ValueError):
        band_distance(0.0, fc, 0.9, aperture, 1.6)


def test_band_distance_deterministic():
    fc = 28e9
    aperture = 64.0 * 0.5 * C / fc
    a = band_distance(2e8, fc, 0.9, aperture, 0.5)
    b = band_distance(2e8, fc, 0.9, aperture, 0.5)
    assert a == b


_BAND_FC = 28e9
_BAND_APERTURE = 64.0 * 0.5 * C / _BAND_FC
_BAND_OFFSETS = (0.0, -0.0, 2e8, -2e8, 6e8, -1.2e9)  # finite, floor and inf results
_BAND_TAUS = (0.9, 0.6, _db(-2.0))


def _band_clear():
    regimes_mod._far_gain.cache_clear()
    regimes_mod._scan.cache_clear()


def _band(f, tau):
    return band_distance(f, _BAND_FC, tau, _BAND_APERTURE, 0.5).hex()


def test_band_distance_is_the_same_cold_and_warm_in_any_order():
    # each offset's far-field check and scan are cached for the thresholds
    # that follow; no call order may change a bit, and neither may an
    # offset of -0.0, which shares its cache entry with 0.0
    pairs = [(f, tau) for f in _BAND_OFFSETS for tau in _BAND_TAUS]
    cold = {}
    for f, tau in pairs:
        _band_clear()
        cold[(math.copysign(1.0, f), f, tau)] = _band(f, tau)
    results = set(cold.values())
    assert "inf" in results and len(results) > 3
    rng = np.random.default_rng(3)
    orders = [pairs, pairs[::-1]] + [[pairs[i] for i in rng.permutation(len(pairs))]
                                     for _ in range(3)]
    for order in orders:
        _band_clear()
        for f, tau in order:
            assert _band(f, tau) == cold[(math.copysign(1.0, f), f, tau)]
    for tau in _BAND_TAUS:
        assert cold[(1.0, 0.0, tau)] == cold[(-1.0, -0.0, tau)]


def _count_kernel(monkeypatch):
    calls = []
    kernel = regimes_mod._gain_pq
    monkeypatch.setattr(regimes_mod, "_gain_pq",
                        lambda p, g2: calls.append(np.asarray(g2).copy()) or kernel(p, g2))
    return calls


def test_band_distance_inf_costs_one_kernel_call(monkeypatch):
    # the far-field check alone decides inf; the scan is not built for it
    _band_clear()
    calls = _count_kernel(monkeypatch)
    assert band_distance(-1.2e9, _BAND_FC, 0.9, _BAND_APERTURE, 0.5) == math.inf
    assert len(calls) == 1
    assert regimes_mod._scan.cache_info().currsize == 0


def test_band_distance_thresholds_share_the_check_and_the_scan(monkeypatch):
    _band_clear()
    calls = _count_kernel(monkeypatch)
    first = band_distance(2e8, _BAND_FC, 0.9, _BAND_APERTURE, 0.5)
    assert math.isfinite(first)
    far_g2, scan = calls[0], calls[1]
    assert scan.size > 100
    calls.clear()
    second = band_distance(2e8, _BAND_FC, 0.6, _BAND_APERTURE, 0.5)
    assert math.isfinite(second) and second != first
    # a second threshold at the offset: no far-field call, no scan call,
    # only the scalar bisection steps
    assert regimes_mod._far_gain.cache_info().misses == 1
    assert regimes_mod._scan.cache_info().misses == 1
    assert calls and all(g2.size == 1 and float(g2) != float(far_g2) for g2 in calls)


def test_band_scan_is_shared_read_only():
    # the cache hands every caller the same arrays, so none may write them
    _band_clear()
    rbars, gains = regimes_mod._scan(0.01, 64.0, 0.5, 10.0, 1e7, 50)
    assert regimes_mod._scan(0.01, 64.0, 0.5, 10.0, 1e7, 50)[1] is gains
    for a in (rbars, gains):
        with pytest.raises(ValueError):
            a[0] = 1.0


# ---------------------------------------------------------------------------
# classical distances
# ---------------------------------------------------------------------------

def test_effective_rayleigh_distance_values():
    lam = 0.010707
    assert effective_rayleigh_distance(0.0, 32.0, lam) == pytest.approx(8.05, abs=0.01)
    broadside = effective_rayleigh_distance(0.0, 32.0, lam)
    at60 = effective_rayleigh_distance(math.radians(60), 32.0, lam)
    assert at60 == pytest.approx(broadside / 4.0, rel=1e-6)


def test_fraunhofer_distance_values():
    lam28 = C / 28e9
    assert fraunhofer_distance(64.0, lam28) == pytest.approx(87.7, abs=0.5)
    assert fraunhofer_distance(64.0, lam28) == pytest.approx(
        4.0 * fraunhofer_distance(32.0, lam28), rel=1e-14)
    lam39 = C / 39e9
    assert fraunhofer_distance(32.0, lam39) == pytest.approx(2048 * 0.0076870, abs=0.01)


def test_no_crossing_error_raised(monkeypatch):
    # cap the march at p = 3, short of where its growing chunks would end;
    # a threshold below every null depth then has no crossing to find, and
    # the march must raise without evaluating a grid point past the cap
    largest = []
    kernel = regimes_mod._gain_pq
    monkeypatch.setattr(regimes_mod, "_gain_pq",
                        lambda p, g2: largest.append(np.max(p)) or kernel(p, g2))
    monkeypatch.setattr(regimes_mod, "_PRODUCT_LIMIT", 3.0)
    with pytest.raises(NoCrossingError):
        regimes_mod._march(1e-9, np.array([0.5, 2.0]))
    assert max(largest) == 3.0
    # capped at its first chunk, product_max must raise rather than return
    # a value clipped by the limit
    limit = regimes_mod._PRODUCT_STEP * regimes_mod._PRODUCT_CHUNK
    monkeypatch.setattr(regimes_mod, "_PRODUCT_LIMIT", limit)
    with pytest.raises(NoCrossingError):
        product_max.__wrapped__(_db(-3.0))


# ---------------------------------------------------------------------------
# the first-crossing solver
# ---------------------------------------------------------------------------

README_GAMMA2 = np.geomspace(1e-3, 6.0, 512)  # the contours subcommand's grid


def _products(tau, g2):
    """First-crossing product of every column (0 outside the region): the
    march, then the finish on every live column."""
    hi, f_lo, f_hi = regimes_mod._march(tau, g2)
    live = hi > 0.0
    products = np.zeros_like(g2)
    products[live] = regimes_mod._finish(tau, g2[live], hi[live], f_lo[live], f_hi[live])
    return products


def _fixed_step_march(tau, g2):
    """First grid point k * 0.01 with gain below tau per column, and G - tau
    there and one point before, every grid point evaluated; 0 for columns
    whose on-axis gain is already below."""
    hi, f_lo, f_hi = np.zeros_like(g2), np.zeros_like(g2), np.zeros_like(g2)
    open_idx = np.flatnonzero(gain_narrowband(g2) >= tau)
    k0 = 0
    while open_idx.size:
        p = 0.01 * (k0 + np.arange(0, 65))
        f = _gain_pq(p, g2[open_idx, None]) - tau
        below = f[:, 1:] < 0.0
        hit = np.flatnonzero(below.any(axis=1))
        j = below[hit].argmax(axis=1) + 1
        hi[open_idx[hit]], f_lo[open_idx[hit]], f_hi[open_idx[hit]] = (
            p[j], f[hit, j - 1], f[hit, j])
        open_idx = np.delete(open_idx, hit)
        k0 += 64
    return hi, f_lo, f_hi


@pytest.mark.parametrize("tau_db", [-0.2, -1.0, -3.0, -6.0, -10.0])
def test_march_brackets_equal_a_fixed_step_march(tau_db):
    # the march, whose chunk grows, must find the bracket [hi - 0.01, hi],
    # with G - tau at both ends, that a march in fixed chunks of 64 finds
    tau = _db(tau_db)
    for g2 in (README_GAMMA2, np.geomspace(1e-3, 1.0 / tau, 256)):
        march = regimes_mod._march(tau, g2)
        for got, want in zip(march, _fixed_step_march(tau, g2)):
            assert np.array_equal(got, want)


# shallow and deep, a duplicate, and -10 dB alone live on the deepest columns
_MIXED_TAUS = [_db(t) for t in (-0.2, -10.0, -3.0, -0.2, -6.0, -1.0)]


@pytest.mark.parametrize("g2", [README_GAMMA2,
                                np.geomspace(1e-3, 10.0, regimes_mod._GAMMA2_POINTS)])
def test_march_of_several_thresholds_equals_one_at_a_time(g2):
    # one march for all thresholds must give each the bracket, bit for bit,
    # that its own march gives
    taus = np.array(_MIXED_TAUS)
    live = gain_narrowband(g2) >= taus[:, None]
    assert (live.sum(axis=0) == 1).any()
    march = regimes_mod._march(taus, g2)
    for t, tau in enumerate(_MIXED_TAUS):
        for got, want in zip(march, regimes_mod._march(tau, g2)):
            assert got.shape == (taus.size, g2.size)
            assert np.array_equal(got[t], want)


def test_boundaries_of_several_thresholds_equal_one_at_a_time():
    every = main_lobe_boundary(_MIXED_TAUS, README_GAMMA2)
    assert every.shape == (len(_MIXED_TAUS), README_GAMMA2.size)
    for tau, got in zip(_MIXED_TAUS, every):
        assert np.array_equal(got, main_lobe_boundary(tau, README_GAMMA2), equal_nan=True)


def test_several_thresholds_share_kernel_calls(monkeypatch):
    # each gain point is evaluated once, so the README's three thresholds
    # take fewer kernel calls together than in three separate solves
    calls = _count_kernel(monkeypatch)
    taus = [_db(t) for t in (-0.2, -1.0, -2.0)]
    main_lobe_boundary(taus, README_GAMMA2)
    shared = len(calls)
    for tau in taus:
        main_lobe_boundary(tau, README_GAMMA2)
    assert shared < len(calls) - shared


def test_no_crossing_error_names_the_failing_threshold(monkeypatch):
    # capped at p = 3, -20 dB finds no crossing on the contours grid where
    # 0.9 and 0.5 do; the error names it as a float, not the array
    monkeypatch.setattr(regimes_mod, "_PRODUCT_LIMIT", 3.0)
    message = r"tau=0\.01 for gamma1\*gamma2 <= 3\.0$"
    with pytest.raises(NoCrossingError, match=message):
        main_lobe_boundary([0.9, 0.01, 0.5], README_GAMMA2)
    with pytest.raises(NoCrossingError, match=message):
        main_lobe_boundary(0.01, README_GAMMA2)
    assert np.isfinite(main_lobe_boundary(0.5, README_GAMMA2)).any()


@pytest.mark.parametrize("tau_db", [-3.0, -6.0, -10.0])
def test_top_level_march_keeps_the_top_level(tau_db):
    # product_max's pruned first pass finds the top grid level of a full
    # march on the 4096-column grid, with the same brackets there
    tau = _db(tau_db)
    g2 = np.geomspace(regimes_mod._GAMMA2_FLOOR, 1.0 / tau, regimes_mod._GAMMA2_POINTS)
    full = regimes_mod._march(tau, g2)
    pruned = regimes_mod._top_level_march(tau, g2)
    top = np.flatnonzero(full[0] == full[0].max())
    assert np.array_equal(np.flatnonzero(pruned[0] == pruned[0].max()), top)
    for got, want in zip(pruned, full):
        assert np.array_equal(got[top], want[top])


@pytest.mark.parametrize("tau_db", [-0.2, -2.0, -3.0, -10.0])
@pytest.mark.parametrize("top_only", [False, True])
def test_every_product_lies_in_its_bracket(tau_db, top_only):
    # top_only finishes, as product_max does, only the live columns on the
    # top grid level; otherwise every live column is finished
    tau = _db(tau_db)
    g2 = np.geomspace(1e-3, 1.0 / tau, 256)
    hi, f_lo, f_hi = regimes_mod._march(tau, g2)
    if top_only:
        finish = (hi == hi.max()) & (hi > 0.0)
        products = np.zeros_like(g2)
        products[finish] = regimes_mod._finish(tau, g2[finish], hi[finish], f_lo[finish],
                                               f_hi[finish])
    else:
        finish = hi > 0.0
        products = _products(tau, g2)
    solved = products > 0.0
    assert np.array_equal(solved, finish)
    assert (products[solved] >= hi[solved] - 0.01).all()
    assert (products[solved] <= hi[solved]).all()


@pytest.mark.parametrize("tau_db", [-3.0, -6.0, -10.0])
def test_product_max_candidates_are_the_top_grid_level(tau_db):
    # on product_max's 4096-column grid, finishing every live column gives
    # the maximum, and the column holding it, that the top level alone gives
    tau = _db(tau_db)
    g2 = np.geomspace(regimes_mod._GAMMA2_FLOOR, 1.0 / tau, regimes_mod._GAMMA2_POINTS)
    hi, f_lo, f_hi = regimes_mod._march(tau, g2)
    products = _products(tau, g2)
    top = np.flatnonzero(hi == hi.max())
    finished = regimes_mod._finish(tau, g2[top], hi[top], f_lo[top], f_hi[top])
    assert products.max() == finished.max()
    assert products.argmax() == top[finished.argmax()]


@pytest.mark.parametrize("tau_db", [-0.2, -1.0, -2.0])
def test_main_lobe_boundary_against_40_digit_gain(tau_db):
    tau = _db(tau_db)
    g2 = README_GAMMA2[::16]
    g1 = main_lobe_boundary(tau, g2)
    inside = np.flatnonzero(np.isfinite(g1))
    assert inside.size >= 20
    residual = max(abs(float(gain_40(g1[i], g2[i]) - tau)) for i in inside)
    assert residual <= 2e-15


def test_product_max_deep_threshold_edge():
    # -11.25 dB still crosses before the march limit p = 64; at -11.3 dB
    # some live column keeps its gain above tau up to it
    assert product_max.__wrapped__(_db(-11.25)) == pytest.approx(62.40001863079574, rel=1e-12)
    with pytest.raises(NoCrossingError, match=r"for gamma1\*gamma2 <= 64\.0$"):
        product_max.__wrapped__(_db(-11.3))


def test_solver_rounds(monkeypatch):
    # kernel calls, not points, are the solver's cost
    calls = []
    kernel = regimes_mod._gain_pq
    monkeypatch.setattr(regimes_mod, "_gain_pq", lambda p, g2: calls.append(1) or kernel(p, g2))
    for tau_db in (-0.2, -1.0, -2.0):
        main_lobe_boundary(_db(tau_db), README_GAMMA2)
    assert len(calls) <= 60
    calls.clear()
    product_max.__wrapped__(_db(-3.0))
    assert len(calls) <= 80
    calls.clear()
    product_max.__wrapped__(_db(-10.0))
    assert len(calls) <= 120
