"""Array geometry, channel models, and the gain consistency chain."""

import math
import warnings

import numpy as np
import pytest

from nearband.arrays import (
    _element_distances,
    ArrayGeometry,
    FresnelRegionWarning,
    ObserverPoint,
    antenna_positions,
    as_regime,
    beamformer,
    channel,
    gain_exact,
    gain_fresnel_sum,
)
from nearband.constants import SPEED_OF_LIGHT_M_S as C
from nearband.fresnel import gain_closed_form
from nearband.regimes import Regime, gamma_from_regime

from _oracles import (
    gain_exact_longdouble,
    gain_quadratic_sum_longdouble,
    random_fresnel_configs,
)


def _geom(n=64, dbar=0.5, fc=39e9):
    lam = C / fc
    return ArrayGeometry(n, dbar * lam, fc)


def test_antenna_positions_examples():
    assert np.allclose(antenna_positions(ArrayGeometry(2, 0.01, 1e9)), [-0.005, 0.005])
    assert np.allclose(antenna_positions(ArrayGeometry(3, 0.004, 1e9)), [-0.004, 0.0, 0.004])
    assert antenna_positions(ArrayGeometry(1, 0.01, 1e9)).tolist() == [0.0]
    pos = antenna_positions(ArrayGeometry(17, 0.003, 1e9))
    assert np.all(np.diff(pos) > 0)
    assert np.allclose(pos + pos[::-1], 0.0)


def test_distance_examples():
    d_n = antenna_positions(ArrayGeometry(5, 0.02, 1e9))
    assert np.allclose(_element_distances(d_n, 3.0, 0.0), np.sqrt(9.0 + d_n**2))
    assert _element_distances(np.zeros(1), 7.5, 0.4).tolist() == [7.5]
    r = _element_distances(antenna_positions(ArrayGeometry(2, 2.0, 1e9)), 10.0, math.pi / 6)
    assert r[0] == pytest.approx(math.sqrt(111.0), rel=1e-12)
    assert r[1] == pytest.approx(math.sqrt(91.0), rel=1e-12)
    assert np.all(r > 0)


def test_geometry_validation():
    with pytest.raises(ValueError):
        ArrayGeometry(0, 0.01, 1e9)
    with pytest.raises(ValueError):
        ArrayGeometry(4, -0.01, 1e9)
    with pytest.raises(ValueError):
        ObserverPoint(0.0, 0.0)
    with pytest.raises(ValueError):
        ObserverPoint(1.0, math.pi / 2)
    # an offset at or below -carrier leaves no positive absolute frequency
    # (the README quickstart array at 20 m and 60 degrees)
    rx = ObserverPoint(20.0, math.radians(60))
    for offset in (-39e9, -2 * 39e9):
        for build in (channel, beamformer, gain_exact):
            with pytest.raises(ValueError, match="baseband_hz"):
                build(_geom(), rx, "nf_wb", offset)
        with pytest.raises(ValueError, match="baseband_hz"):
            as_regime(_geom(), rx, offset)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("build, field", [
    pytest.param(lambda v: ArrayGeometry(4, v, 28e9), "spacing_m", id="spacing_m"),
    pytest.param(lambda v: ArrayGeometry(4, 0.005, v), "carrier_hz", id="carrier_hz"),
    pytest.param(lambda v: ObserverPoint(v, 0.5), "range_m", id="range_m"),
    pytest.param(lambda v: channel(_geom(), ObserverPoint(15.0, 0.5), "nf_wb", v),
                 "baseband_hz", id="channel-baseband_hz"),
    pytest.param(lambda v: gain_exact(_geom(), ObserverPoint(15.0, 0.5), "nf_wb", v),
                 "baseband_hz", id="gain_exact-baseband_hz"),
])
def test_non_finite_geometry_rejected(build, field, bad):
    with pytest.raises(ValueError, match=field):
        build(bad)


def test_channel_variants():
    geom = _geom()
    pt = ObserverPoint(15.0, 0.5)
    nb = channel(geom, pt, "nf_nb")
    wb0 = channel(geom, pt, "nf_wb", 0.0)
    assert np.allclose(nb, wb0, atol=1e-15)
    assert np.allclose(np.abs(nb), 1.0)
    with pytest.raises(ValueError):
        channel(geom, pt, "nf_nb", 1e9)
    with pytest.raises(ValueError):
        channel(geom, pt, "squiggle")


def test_single_antenna_all_variants():
    geom = ArrayGeometry(1, 0.005, 28e9)
    pt = ObserverPoint(4.0, 0.7)
    for variant in ("nf_wb", "nf_nb", "ff_wb", "ff_nb"):
        f = 0.0 if variant.endswith("nb") else 2e8
        ch = channel(geom, pt, variant, f)
        assert abs(ch[0]) == pytest.approx(1.0, abs=1e-15)
        assert gain_exact(geom, pt, variant, f) == pytest.approx(1.0, abs=1e-12)


def test_ff_wb_phases_linear_in_index():
    geom = _geom(n=8)
    pt = ObserverPoint(30.0, math.radians(30))
    ch = channel(geom, pt, "ff_wb", 0.1 * geom.carrier_hz)
    steps = np.diff(np.unwrap(np.angle(ch)))
    assert np.abs(steps - steps[0]).max() < 1e-9


def test_beamformer_matched_and_normed():
    pt = ObserverPoint(12.0, -0.4)
    for n in (4, 64):
        geom = _geom(n=n)
        for variant in ("nf_wb", "nf_nb", "ff_wb", "ff_nb"):
            f = 0.0 if variant.endswith("nb") else 3e8
            bf = beamformer(geom, pt, variant, f)
            assert np.linalg.norm(bf) == pytest.approx(1.0, abs=1e-12)
            ch = channel(geom, pt, variant, f)
            matched = abs(np.vdot(ch, bf)) / math.sqrt(n)
            assert matched == pytest.approx(1.0, abs=1e-12)
    bf_ffnb = beamformer(_geom(n=16), pt, "ff_nb")
    assert np.allclose(np.abs(bf_ffnb), 1.0 / 4.0)


def test_gain_exact_matched_and_farfield_limit():
    geom = _geom()
    pt = ObserverPoint(9.0, 1.0)
    assert gain_exact(geom, pt, "ff_nb") == pytest.approx(1.0, abs=1e-13)
    assert gain_exact(geom, pt, "ff_wb", 0.0) == pytest.approx(1.0, abs=1e-13)
    far = ObserverPoint(1e6 * geom.aperture_m, 0.0)
    assert gain_exact(geom, far, "nf_wb", 0.0) >= 0.9999


def test_gain_exact_against_extended_precision():
    geom = _geom(n=64, dbar=0.5, fc=39e9)
    pt = ObserverPoint(20.0, math.radians(60))
    expect = gain_exact_longdouble(64, geom.spacing_m, 39e9, 20.0, math.radians(60), 0.6e9)
    assert gain_exact(geom, pt, "nf_wb", 0.6e9) == pytest.approx(expect, abs=1e-10)


def test_global_phase_invariance():
    geom = _geom(n=32)
    pt = ObserverPoint(8.0, 0.3)
    ch = channel(geom, pt, "nf_wb", 4e8)
    bf = beamformer(geom, pt, "ff_nb")
    base = abs(np.vdot(ch, bf)) / math.sqrt(32)
    for phase in (0.7, -2.1, 3.13):
        shifted = ch * np.exp(1j * phase)
        rotated = abs(np.vdot(shifted, bf)) / math.sqrt(32)
        assert rotated == pytest.approx(base, abs=1e-12)


def test_fresnel_sum_trivial_cases():
    assert gain_fresnel_sum(Regime(0.0, 100.0, 0.5, 0.5, 0.2), 1) == 1.0
    huge_range = Regime(0.0, 1e12, 0.5, 32.0, 0.4)
    assert gain_fresnel_sum(huge_range, 64) == pytest.approx(1.0, abs=1e-9)


def test_element_counts_must_be_whole():
    # np.arange(2.5) has 3 terms, so a fractional count used to give G > 1
    reg = Regime(0.01, 5000.0, 0.5, 32.0, 0.5)
    for bad in (2.5, 0, -3, math.inf, math.nan):
        with pytest.raises(ValueError, match="n_antennas"):
            gain_fresnel_sum(reg, bad)
        with pytest.raises(ValueError, match="n_antennas"):
            ArrayGeometry(bad, 0.01, 1e9)
    assert gain_fresnel_sum(reg, np.int64(64)) == gain_fresnel_sum(reg, 64)
    assert ArrayGeometry(np.int32(8), 0.01, 1e9).aperture_m == \
        ArrayGeometry(8, 0.01, 1e9).aperture_m


def test_element_count_must_match_the_regime():
    # lbar = N * dbar already fixes N: 64 or 512 elements for a 128-element
    # regime used to return a gain that belongs to no configuration
    reg = Regime(0.01, 5000.0, 0.5, 64.0, 0.5)
    assert gain_fresnel_sum(reg, 128) == pytest.approx(
        gain_closed_form(*gamma_from_regime(reg)), abs=1e-3)
    for bad in (64, 512, np.int64(127)):
        with pytest.raises(ValueError, match="n_antennas"):
            gain_fresnel_sum(reg, bad)
    # the count's own errors come first
    with pytest.raises(ValueError, match="whole number"):
        gain_fresnel_sum(reg, 2.5)
    with pytest.raises(ValueError, match="<= 1000000"):
        gain_fresnel_sum(reg, 10**12)


def test_element_counts_are_bounded(monkeypatch):
    # 10**400 elements used to be accepted until aperture_m overflowed, and
    # 10**12 made gain_fresnel_sum allocate terabytes; both must raise first
    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated before the count was checked")

    reg = Regime(0.01, 5000.0, 0.5, 32.0, 0.5)
    monkeypatch.setattr(np, "arange", no_allocation)
    for bad in (10**6 + 1, 10**12, 10**400, 1e300):
        with pytest.raises(ValueError, match="n_antennas must be <= 1000000"):
            ArrayGeometry(bad, 0.01, 1e9)
        with pytest.raises(ValueError, match="n_antennas must be <= 1000000"):
            gain_fresnel_sum(reg, bad)
    monkeypatch.undo()
    assert ArrayGeometry(10**6, 0.01, 1e9).aperture_m == pytest.approx(1e4)


def test_fresnel_sum_warning_outside_region():
    inside = Regime(0.01, 4.0 * 32.0**1.5, 0.5, 32.0, 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gain_fresnel_sum(inside, 64)
    outside = Regime(0.01, 5.0, 0.5, 32.0, 0.3)
    with pytest.warns(FresnelRegionWarning):
        value = gain_fresnel_sum(outside, 64)
    assert 0.0 <= value <= 1.0


def test_check_fresnel_region():
    # the region's edge, every element beyond 0.5 sqrt(L^3 / lambda_c), as
    # gain_fresnel_sum's FresnelRegionWarning decides it
    geom = _geom(n=128, dbar=0.5, fc=28e9)
    threshold = 0.5 * math.sqrt(geom.aperture_m**3 / geom.wavelength_m)
    assert threshold == pytest.approx(2.741, abs=2e-3)
    for range_m, angle, in_region in [(5.0, 0.0, True), (1e9 * geom.aperture_m, 0.2, True),
                                      (1e-3, 0.0, False), (threshold * 0.99, 0.0, False),
                                      (threshold * 1.01, 0.0, True)]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            gain_fresnel_sum(as_regime(geom, ObserverPoint(range_m, angle)), 128)
        assert [w.category for w in caught] == ([] if in_region else [FresnelRegionWarning])


def test_fresnel_sum_example_against_oracles():
    reg = Regime(fbar=0.05, rbar=128.0**2, dbar=0.5, lbar=128.0,
                 theta_rad=math.radians(30))
    got = gain_fresnel_sum(reg, 256)
    expect = gain_quadratic_sum_longdouble(0.05, 128.0**2, 0.5, math.radians(30), 256)
    assert got == pytest.approx(expect, abs=1e-12)
    closed = gain_closed_form(*gamma_from_regime(reg))
    assert abs(got - closed) <= 0.02


def test_fresnel_sum_angle_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(25):
        theta = float(rng.uniform(0.05, 1.3))
        reg_p = Regime(float(rng.uniform(-0.05, 0.05)),
                       float(rng.uniform(500.0, 5e4)), 0.5, 32.0, theta)
        reg_m = Regime(reg_p.fbar, reg_p.rbar, 0.5, 32.0, -theta)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FresnelRegionWarning)
            assert gain_fresnel_sum(reg_p, 64) == pytest.approx(
                gain_fresnel_sum(reg_m, 64), abs=1e-12)


def test_consistency_chain_sampled():
    rng = np.random.default_rng(11)
    for n, dbar, fc, rbar, theta, fbar in random_fresnel_configs(rng, 40):
        lam = C / fc
        geom = ArrayGeometry(n, dbar * lam, fc)
        pt = ObserverPoint(rbar * lam, theta)
        regime = as_regime(geom, pt, fbar * fc)
        exact = gain_exact(geom, pt, "nf_wb", fbar * fc)
        approx = gain_fresnel_sum(regime, n)
        closed = gain_closed_form(*gamma_from_regime(regime))
        assert abs(exact - approx) <= 0.01
        assert abs(approx - closed) <= max(0.02, 5.0 / n)


def test_carrier_invariance_power_of_two_scaling():
    # scaling every length by 1/16 and every frequency by 16 is exact in
    # binary floating point, so the normalized regime and the gain match bit
    # for bit through the physical constructors
    geom1 = ArrayGeometry(96, 0.00531, 23.7e9)
    pt1 = ObserverPoint(41.3, 0.61)
    f1 = 3.1e8
    geom2 = ArrayGeometry(96, 0.00531 / 16.0, 23.7e9 * 16.0)
    pt2 = ObserverPoint(41.3 / 16.0, 0.61)
    f2 = 3.1e8 * 16.0
    reg1 = as_regime(geom1, pt1, f1)
    reg2 = as_regime(geom2, pt2, f2)
    assert reg1 == reg2
    assert gain_fresnel_sum(reg1, 96) == gain_fresnel_sum(reg2, 96)
    assert gain_exact(geom1, pt1, "nf_wb", f1) == pytest.approx(
        gain_exact(geom2, pt2, "nf_wb", f2), abs=1e-12)


def test_geometry_derived_quantities():
    geom = ArrayGeometry(128, 0.00535343675, 28e9)
    assert geom.aperture_m == pytest.approx(0.6852, abs=2e-4)
    assert geom.lbar == pytest.approx(64.0, rel=1e-4)
    assert geom.dbar == pytest.approx(0.5, rel=1e-4)
