"""Fresnel integrals and the closed-form gain surface."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import nearband.fresnel as fresnel_mod
import nearband.oracle as oracle_mod
from nearband.fresnel import (
    SMALL_GAMMA2_CUTOFF,
    fresnel_cs,
    gain_closed_form,
    gain_narrowband,
    to_db,
)
from nearband.oracle import quadrature_cs

# frozen from the quadrature oracle (tolerance 1e-12), cross-checked in
# test_frozen_values_match_oracle
C_HALF = 0.4923442258714464
S_HALF = 0.06473243285999928
C_TEN = 0.4998986942055157
S_TEN = 0.4681699785848822
GNB_HALF = 0.9931628760942047


def test_zero_is_zero():
    assert fresnel_cs(0.0)[0] == 0.0
    assert fresnel_cs(0.0)[1] == 0.0


def test_frozen_values_match_oracle():
    xs = np.array([0.5, 10.0])
    qc, qs = quadrature_cs(xs)
    assert qc[0] == pytest.approx(C_HALF, abs=1e-12)
    assert qs[0] == pytest.approx(S_HALF, abs=1e-12)
    assert qc[1] == pytest.approx(C_TEN, abs=1e-12)
    assert qs[1] == pytest.approx(S_TEN, abs=1e-12)


@pytest.mark.parametrize("x, expected", [(0.5, C_HALF), (10.0, C_TEN)])
def test_c_golden(x, expected):
    assert fresnel_cs(x)[0] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("x, expected", [(0.5, S_HALF), (10.0, S_TEN)])
def test_s_golden(x, expected):
    assert fresnel_cs(x)[1] == pytest.approx(expected, abs=1e-12)


def test_s10_against_asymptotic_form():
    # S(x) ~ 1/2 - cos(pi x^2/2)/(pi x); next correction is ~3e-5/(pi x)
    approx = 0.5 - math.cos(math.pi * 100.0 / 2.0) / (math.pi * 10.0)
    assert abs(fresnel_cs(10.0)[1] - approx) < 1e-5


def test_oddness_is_exact():
    assert fresnel_cs(-1.3)[0] == -fresnel_cs(1.3)[0]
    xs = np.linspace(0.01, 30.0, 757)
    cp, sp = fresnel_cs(xs)
    cn, sn = fresnel_cs(-xs)
    assert np.array_equal(cn, -cp)
    assert np.array_equal(sn, -sp)


@given(st.floats(min_value=-30.0, max_value=30.0, allow_nan=False))
def test_oddness_property(x):
    assert fresnel_cs(-x)[0] == -fresnel_cs(x)[0]
    assert fresnel_cs(-x)[1] == -fresnel_cs(x)[1]


def test_oracle_agreement_sampled():
    rng = np.random.default_rng(7)
    xs = rng.uniform(-30.0, 30.0, 300)
    qc, qs = quadrature_cs(xs)
    c, s = fresnel_cs(xs)
    assert np.abs(c - qc).max() <= 1e-9
    assert np.abs(s - qs).max() <= 1e-9


@pytest.mark.parametrize("points", [[0.0, 12.0], [0.0, 3.0, 29.5]])
def test_oracle_splits_panels_too_coarse_for_one_round(points):
    # one K15 panel cannot hold these spans to tolerance, so the oracle
    # bisects them; the cumulative integrals still match the kernel
    points = np.array(points)
    value = np.cumsum(oracle_mod._integrate_panels(points))
    c, s = fresnel_cs(points[1:])
    assert np.abs(value.real - c).max() <= 1e-12
    assert np.abs(value.imag - s).max() <= 1e-12


def test_branch_boundaries_are_continuous():
    for edge in (1.6, 6.0):
        below = fresnel_cs(edge - 1e-12)
        above = fresnel_cs(edge + 1e-12)
        assert below[0] == pytest.approx(above[0], abs=1e-11)
        assert below[1] == pytest.approx(above[1], abs=1e-11)


def test_asymptote_envelope():
    # |C(x) - 1/2 - sin(pi x^2/2)/(pi x)| equals |g(x) cos(...)| up to tiny
    # terms; the envelope 1/(pi^2 x^3) crosses 1e-4 near x = 10.04, so the
    # bound is 1e-4 on [10.05, 100] and marginally looser at the left edge.
    xs = np.linspace(10.05, 100.0, 1201)
    c, _ = fresnel_cs(xs)
    resid = np.abs(c - 0.5 - np.sin(np.pi * xs * xs / 2.0) / (np.pi * xs))
    assert resid.max() <= 1e-4
    corner = np.linspace(10.0, 10.05, 101)
    c2, _ = fresnel_cs(corner)
    resid2 = np.abs(c2 - 0.5 - np.sin(np.pi * corner * corner / 2.0) / (np.pi * corner))
    assert resid2.max() <= 1.05e-4


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_rejected(bad):
    with pytest.raises(ValueError):
        fresnel_cs(bad)[0]
    with pytest.raises(ValueError):
        fresnel_cs(bad)[1]
    with pytest.raises(ValueError):
        gain_closed_form(bad, 1.0)
    with pytest.raises(ValueError):
        gain_closed_form(0.0, bad)


# ---------------------------------------------------------------------------
# gain surface
# ---------------------------------------------------------------------------

def test_gain_limit_at_small_gamma2():
    assert gain_closed_form(0.0, 1e-9) == 1.0
    assert gain_closed_form(4.7, 1e-9) == 1.0


def test_gain_golden_point():
    assert gain_closed_form(0.0, 0.5) == pytest.approx(GNB_HALF, abs=1e-12)


def test_gain_evenness_exact():
    assert gain_closed_form(-1.2, 0.8) == gain_closed_form(1.2, 0.8)


@given(
    st.floats(min_value=-8.0, max_value=8.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
)
def test_gain_evenness_property(g1, g2):
    assert gain_closed_form(g1, g2) == gain_closed_form(-g1, g2)


def test_gain_bounded_by_one():
    g1 = np.linspace(-6.0, 6.0, 121)
    g2 = np.linspace(6.0 / 120, 6.0, 120)
    gains = gain_closed_form(g1[:, None], g2[None, :])
    assert gains.max() <= 1.0 + 1e-12
    assert gains.min() >= 0.0


def test_gain_negative_gamma2_rejected():
    with pytest.raises(ValueError):
        gain_closed_form(0.0, -0.1)
    with pytest.raises(ValueError):
        gain_narrowband(-1e-9)


@pytest.mark.parametrize("g1, g2", [(1e308, 1e308), (0.0, 1e308), (1e160, 1e160)])
def test_gain_overflowing_input_rejected(g1, g2):
    # finite input whose |gamma1|*gamma2, |gamma1| + gamma2 or 2*gamma2
    # overflows is named, without an overflow warning, not evaluated to 0
    with pytest.raises(ValueError, match="overflows"):
        gain_closed_form(g1, g2)
    with pytest.raises(ValueError, match="overflows"):
        gain_closed_form(np.array([0.5, -g1]), np.array([0.5, g2]))


def test_gain_continuity_at_cutoff():
    g1 = np.linspace(-6.0, 6.0, 25)
    just_below = (SMALL_GAMMA2_CUTOFF / 2) * (1 - 1e-9)
    just_above = (SMALL_GAMMA2_CUTOFF / 2) * (1 + 1e-9)
    low = gain_closed_form(g1, just_below)
    high = gain_closed_form(g1, just_above)
    assert np.array_equal(low, np.abs(np.sinc(g1 * just_below)))
    assert np.abs(high - low).max() <= 1e-9


def _gain_mp(gamma1, gamma2):
    # the closed form at the exact float inputs, in 40-digit arithmetic
    with mpmath.workdps(40):
        g1, g2 = mpmath.mpf(gamma1), mpmath.mpf(gamma2)
        dc = mpmath.fresnelc(g1 + g2) - mpmath.fresnelc(g1 - g2)
        ds = mpmath.fresnels(g1 + g2) - mpmath.fresnels(g1 - g2)
        return mpmath.sqrt(dc * dc + ds * ds) / (2 * g2)


def test_gain_matches_mpmath_along_fixed_products():
    # the solvers hold p = gamma1*gamma2 fixed; at small gamma2 gamma1 is
    # large, and the phase must not be lost to the rounding of g1 +- g2
    for gamma2 in (6e-7, 1e-5, 1e-3, 1e-2, 0.1, 1.0, 3.0, 10.0):
        for p in (0.1, 0.3654, 0.5044, 0.9, 1.7, 7.3):
            g1 = p / gamma2
            want = _gain_mp(g1, gamma2)
            got = gain_closed_form(g1, gamma2)
            assert abs(got - want) <= 1e-13 * want, (gamma2, p, got, want)


def test_gain_small_gamma2_follows_sinc_of_product():
    # below the cutoff the limit at fixed p = gamma1*gamma2 is |sinc(p)|,
    # not 1: here p = 0.4
    assert gain_closed_form(1e6, 4e-7) == pytest.approx(0.756827, abs=1e-6)
    assert gain_closed_form(-1e6, 4e-7) == gain_closed_form(1e6, 4e-7)


def test_narrowband_identity_and_threshold_point():
    g2 = np.linspace(0.05, 5.0, 200)
    assert np.array_equal(gain_narrowband(g2), gain_closed_form(0.0, g2))
    # gamma2 = 0.8253 sits at the 0.95 linear boundary level
    assert gain_narrowband(0.8253) == pytest.approx(0.95, abs=0.002)
    assert gain_narrowband(1e-12) == 1.0


def test_squint_hyperbola_on_squint_dominant_branch():
    # along |g1*g2| = 0.5044 the gain is -2 dB (+-0.1) on the branch where
    # squint dominates (g1 >= g2); the contour bends off the hyperbola on
    # the curvature-dominated side
    for const, level in ((0.5044, -2.0), (0.3654, -1.0)):
        g1 = np.geomspace(math.sqrt(const), 2.5, 40)
        db = to_db(gain_closed_form(g1, const / g1))
        assert np.abs(db - level).max() <= 0.1


def test_to_db():
    assert to_db(1.0) == 0.0
    assert to_db(0.95) == pytest.approx(-0.2228, abs=5e-4)
    assert to_db(0.5) == pytest.approx(-3.0103, abs=5e-4)
    assert to_db(0.0) == -math.inf
    with pytest.raises(ValueError):
        to_db(-0.5)
    out = to_db(np.array([1.0, 0.1]))
    assert out[0] == 0.0 and out[1] == pytest.approx(-10.0, abs=1e-12)


def test_vector_and_scalar_agree():
    xs = np.array([0.3, 1.7, 8.0])
    c, s = fresnel_cs(xs)
    for i, x in enumerate(xs):
        assert fresnel_cs(float(x))[0] == c[i]
        assert fresnel_cs(float(x))[1] == s[i]


# Array calls are evaluated in blocks; each element must come out with the
# same bits as a scalar call on it, whatever block it falls in.
_BLOCK = fresnel_mod._BLOCK
_SCALAR_MAX = fresnel_mod._SCALAR_MAX


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@pytest.fixture(scope="module")
def scalar_pools():
    rng = np.random.default_rng(7)
    sign = lambda n: rng.choice([-1.0, 1.0], n)
    x = np.concatenate([
        rng.uniform(-1.6, 1.6, 60),
        rng.uniform(1.6, 6.0, 60) * sign(60),
        np.exp(rng.uniform(np.log(6.0), np.log(1e10), 60)) * sign(60),
        [0.0, -0.0, 1.6, -1.6, 6.0, -6.0, 1e10, -1e10, 3e12, -5e15],
    ])
    g1 = rng.uniform(-20.0, 20.0, 200)
    g2 = np.concatenate([
        rng.uniform(0.0, 10.0, 150),
        rng.uniform(0.0, SMALL_GAMMA2_CUTOFF / 2, 40),
        np.zeros(10),
    ])
    cs = np.array([fresnel_cs(float(v)) for v in x])
    gain = np.array([gain_closed_form(float(a), float(b)) for a, b in zip(g1, g2)])
    return x, cs, g1, g2, gain


@pytest.mark.parametrize("size", sorted({1, 2, _SCALAR_MAX, _SCALAR_MAX + 1})
                         + [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
def test_array_calls_match_scalar_calls_bitwise(size, scalar_pools):
    x, cs, g1, g2, gain = scalar_pools
    rng = np.random.default_rng(size)
    i = rng.integers(0, x.size, size)
    c, s = fresnel_cs(x[i])
    np.testing.assert_array_equal(_bits(c), _bits(cs[i, 0]))
    np.testing.assert_array_equal(_bits(s), _bits(cs[i, 1]))
    j = rng.integers(0, g1.size, size)
    np.testing.assert_array_equal(_bits(gain_closed_form(g1[j], g2[j])), _bits(gain[j]))


# Series inputs of at most _SCALAR_MAX points run on Python floats, larger
# ones as numpy loops; both must give the same bits on every table.
def _recurrence_args(table, rng):
    """Arguments of a table's recurrence, formed as the kernel forms them from
    x across its branch (with the branch edges 1.6 and 6.0), and +-0.0."""
    if table == "_SERIES":
        x = np.concatenate([[1.6, np.nextafter(1.6, 0.0)], rng.uniform(0.0, 1.6, 60)])
        arg = x ** 4
    elif table == "_CHEB":
        x = np.concatenate([[1.6, 6.0, np.nextafter(1.6, 2.0), np.nextafter(6.0, 0.0)],
                            rng.uniform(1.6, 6.0, 60)])
        lo, hi = fresnel_mod._CHEB_S_LO, fresnel_mod._CHEB_S_HI
        arg = (2.0 / (x * x) - (lo + hi)) / (hi - lo)
    else:
        x = np.concatenate([[6.0, np.nextafter(6.0, 7.0), np.nextafter(1e10, 0.0)],
                            np.exp(rng.uniform(np.log(6.0), np.log(1e10), 60))])
        pix2 = np.pi * x * x
        arg = 1.0 / (pix2 * pix2)
    return np.concatenate([[0.0, -0.0], arg])


@pytest.mark.parametrize("table", ["_SERIES", "_CHEB", "_ASYM"])
def test_small_and_large_inputs_give_the_same_recurrence_bits(table):
    coeffs = getattr(fresnel_mod, table)
    recurrence = fresnel_mod._clenshaw if table == "_CHEB" else fresnel_mod._horner
    arg = _recurrence_args(table, np.random.default_rng(11))
    assert arg.size > _SCALAR_MAX + 1
    whole = _bits(recurrence(coeffs, arg))  # the numpy loop
    for size in sorted({1, 2, _SCALAR_MAX, _SCALAR_MAX + 1}):
        parts = [recurrence(coeffs, arg[i:i + size]) for i in range(0, arg.size, size)]
        np.testing.assert_array_equal(_bits(np.concatenate(parts, axis=1)), whole)
