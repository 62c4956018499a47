"""Fresnel integrals and the closed-form beamforming-gain surface.

The cosine and sine Fresnel integrals used throughout the package follow
the normalized convention

    C(x) = int_0^x cos(pi t^2 / 2) dt,      S(x) = int_0^x sin(pi t^2 / 2) dt.

Evaluation is piecewise, tuned so the absolute error stays well below
1e-9 everywhere (in practice ~1e-15):

* ``|x| <= 1.6``   -- Maclaurin series in x^4 (no cancellation this low).
* ``1.6 < |x| <= 6`` -- Chebyshev fits of the auxiliary functions f, g of
  Abramowitz & Stegun 7.3.9-7.3.10 in the variable 1/x^2; the frozen
  coefficient tables are produced by ``scripts/gen_fresnel_coeffs.py``
  and validated against the quadrature oracle in the test suite.
* ``6 < |x| < 1e10`` -- alternating asymptotic series for f, g.  The
  oscillatory phase pi x^2 / 2 is reduced exactly (x^2 mod 4 via a
  Dekker split, each part reduced by y - 4*trunc(y/4), which equals
  fmod(y, 4) bit for bit) so large arguments do not lose phase accuracy.
* ``|x| >= 1e10``  -- C, S = +/-0.5; the neglected terms are < 4e-11.

Both integrals are odd; negative arguments are folded by sign so the
identities C(-x) = -C(x), S(-x) = -S(x) hold bit-exactly.

Arrays are evaluated in blocks of 8192 points (``_BLOCK``), which bounds
every temporary; a gain block takes C and S at all its x+- in one pass.
Each branch runs its pair of series as one stacked recurrence.

The gain surface G depends on gamma1 only through p = |gamma1|*gamma2.
Where x+- = |gamma1| +- gamma2 both lie in the auxiliary branches, G is
formed from f(x+-), g(x+-) and the phase pi p supplied by the caller
(``gain_closed_form`` forms p; the threshold solvers pass it through
``_gain_pq``), so large gamma1 loses no phase to the rounding of x+-: for
p in [0.1, 7.3] and gamma2 in [6e-7, 10] G is within 1.3e-15 relative of
a 40-digit reference.  Other points take the difference of C and S at
x+-, which still cancels when gamma2 and p are both small (about 1e-12
absolute at gamma2 = p = 1e-4).

Every element sees the same operations in the same order, so array calls
are bit-identical to elementwise scalar calls.  That holds across the
small-input rule too: series of at most ``_SCALAR_MAX`` points run the same
recurrence on Python floats, in the same term order, which skips numpy's
dispatch per term; each step is one IEEE-754 multiply, add or subtract,
fused neither by CPython nor by numpy's ufuncs, so both paths give the same
bits.  sin, cos and hypot stay numpy ufuncs (``math.hypot`` rounds differently).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "GammaPair",
    "fresnel_cs",
    "gain_closed_form",
    "gain_narrowband",
    "to_db",
    "SMALL_GAMMA2_CUTOFF",
]

# Branch boundaries of the piecewise evaluation.
_SERIES_MAX = 1.6
_AUX_MAX = 6.0
_HUGE = 1e10

_BLOCK = 8192
# _horner and _clenshaw take inputs of at most this many points, one point's
# x+ and x-, through the same steps on Python floats, which skip numpy's
# dispatch per series term (the float loops stay faster up to about 16 points)
_SCALAR_MAX = 2

# gain_closed_form switches to its gamma2 -> 0 limit when 2*gamma2 falls
# below this; the difference quotient of C, S cancels catastrophically there.
SMALL_GAMMA2_CUTOFF = 1e-6


class GammaPair(NamedTuple):
    """Point in the squint/curvature parameter plane.

    ``gamma1`` measures wideband (beam-squint) severity, ``gamma2`` near-field
    (wavefront-curvature) severity; ``gamma2`` is nonnegative by convention.
    """

    gamma1: float
    gamma2: float


def _series_coeffs(n_terms: int) -> tuple[np.ndarray, np.ndarray]:
    # C(x) = x * sum c_k x^(4k),  S(x) = x^3 * sum s_k x^(4k)
    half_pi = np.pi / 2.0
    c = np.empty(n_terms)
    s = np.empty(n_terms)
    a = 1.0  # (pi/2)^(2k) / (2k)!
    b = half_pi  # (pi/2)^(2k+1) / (2k+1)!
    for k in range(n_terms):
        if k:
            a *= -(half_pi * half_pi) / ((2 * k - 1) * (2 * k))
            b *= -(half_pi * half_pi) / ((2 * k) * (2 * k + 1))
        c[k] = a / (4 * k + 1)
        s[k] = b / (4 * k + 3)
    return c, s


# Chebyshev tables for pi*x*f(x) and pi*x*g(x) on s = 1/x^2 over
# [1/36, 1/2.56]; generated by scripts/gen_fresnel_coeffs.py (fit residual
# below 1e-21).
_CHEB_S_LO = 1.0 / 36.0
_CHEB_S_HI = 1.0 / 2.56
_CHEB_F = np.array([
    1.9711807255867812736,
    -0.017222346270974770319,
    -0.0026535320618112425928,
    0.00037944103399960959495,
    -0.000019263623988187161462,
    -3.9616606914235523815e-6,
    1.4123023494501871801e-6,
    -2.4230594010772145644e-7,
    1.7073759508429559134e-8,
    5.1377394297968850179e-9,
    -2.6306409706106438032e-9,
    7.0100174844237974237e-10,
    -1.2140807358861309683e-10,
    5.9300942957764880400e-12,
    5.6126706080129869009e-12,
    -2.9412562646902639023e-12,
    9.4510626939594286871e-13,
    -2.2169763940833243219e-13,
    3.1764143912711854270e-14,
    2.8466103390794664597e-15,
    -4.2885872798692125725e-15,
    2.0136022811282141002e-15,
    -6.8495393357694101233e-16,
    1.8215840759545928729e-16,
    -3.3889254934015918349e-17,
    6.8807687913419998805e-19,
    3.1582887892147906292e-18,
    -1.9336176132849299457e-18,
    8.0810516480878626420e-19,
    -2.7245945035932559879e-19,
    7.4692823531881307135e-20,
    -1.4636980066508329472e-20,
])
_CHEB_G = np.array([
    0.12072648539345669028,
    0.049114576583604600106,
    -0.0025723884872101091969,
    -0.000099002765876068458726,
    0.000048944184447983016010,
    -7.2507272687716054811e-6,
    3.5812461888962531013e-7,
    1.4218422333657126253e-7,
    -5.5640385858776162176e-8,
    1.1716367516513190547e-8,
    -1.3492333016468426663e-9,
    -1.3161251561646544539e-10,
    1.3105091139483043611e-10,
    -4.5867405110618196141e-11,
    1.0979884011487255579e-11,
    -1.6572218399935277094e-12,
    -5.4290083608461801955e-14,
    1.5638759774328269779e-13,
    -7.2684604615650783451e-14,
    2.3449564291860841739e-14,
    -5.7272243344698489406e-15,
    8.9030202611022593361e-16,
    5.8979332759666946416e-17,
    -1.1910684478787721470e-16,
    6.1011812565758854127e-17,
    -2.2642065437764770939e-17,
    6.7325733067672174717e-18,
    -1.5332185473056776979e-18,
    1.7694818981667985523e-19,
    6.4570672007587765468e-20,
    -5.9745775176807399702e-20,
    2.9530333004505092081e-20,
    -1.1446645372493829084e-20,
])

# Asymptotic auxiliary series, signed coefficients of w = (pi x^2)^-2:
#   pi x f(x) = 1 - 3 w + 105 w^2 - ...          ((4k-1)!! alternating)
#   pi x g(x) = (1 - 15 w + 945 w^2 - ...) / (pi x^2)   ((4k+1)!!)
_ASYM_F = np.array([
    1.0, -3.0, 105.0, -10395.0, 2027025.0,
    -654729075.0, 316234143225.0, -213458046676875.0,
])
_ASYM_G = np.array([
    1.0, -15.0, 945.0, -135135.0, 34459425.0,
    -13749310575.0, 7905853580625.0, -6190283353629375.0,
])


def _stacked(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # rows for one stacked Horner or Clenshaw loop; zero padding is exact
    out = np.zeros((2, max(a.size, b.size)))
    out[0, :a.size] = a
    out[1, :b.size] = b
    return out


_SERIES = _stacked(*_series_coeffs(20))
_CHEB = _stacked(_CHEB_F, _CHEB_G)
_ASYM = _stacked(_ASYM_F, _ASYM_G)


def _horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    if z.size <= _SCALAR_MAX:
        out = []
        for row in coeffs.tolist():
            rest = row[-2::-1]
            for zi in z.tolist():
                acc = row[-1]
                for c in rest:
                    acc = acc * zi + c
                out.append(acc)
        return np.array(out).reshape(coeffs.shape[0], z.size)
    acc = coeffs[:, -1:]
    for c in coeffs.T[-2::-1, :, None]:
        acc = acc * z + c
    return acc


def _clenshaw(coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
    if t.size <= _SCALAR_MAX:
        out = []
        for row in coeffs.tolist():
            rest = row[:0:-1]
            for ti in t.tolist():
                t2, b0, b1 = 2.0 * ti, 0.0, 0.0
                for c in rest:
                    b0, b1 = t2 * b0 - b1 + c, b0
                out.append(ti * b0 - b1 + 0.5 * row[0])
        return np.array(out).reshape(coeffs.shape[0], t.size)
    b0 = np.zeros((coeffs.shape[0], t.size))
    b1 = np.zeros_like(b0)
    t2 = 2.0 * t
    for c in coeffs.T[:0:-1, :, None]:
        b0, b1 = t2 * b0 - b1 + c, b0
    return t * b0 - b1 + 0.5 * coeffs[:, :1]


def _mod4(y: np.ndarray) -> np.ndarray:
    # exactly fmod(y, 4): y/4 and 4*trunc(y/4) are exact, and so is the
    # difference, which is representable
    return y - 4.0 * np.trunc(0.25 * y)


def _quarter_phase(x: np.ndarray) -> np.ndarray:
    # x^2 mod 4, exact: Dekker split keeps every partial product representable.
    c = 134217729.0 * x  # 2**27 + 1
    hi = c - (c - x)
    lo = x - hi
    return _mod4(_mod4(hi * hi) + _mod4(2.0 * hi * lo) + _mod4(lo * lo))


def _cheb_fg(x: np.ndarray) -> np.ndarray:
    """Rows f(x), g(x) of A&S 7.3.9-7.3.10 for 1.6 < x <= 6 (Chebyshev fits)."""
    t = (2.0 / (x * x) - (_CHEB_S_LO + _CHEB_S_HI)) / (_CHEB_S_HI - _CHEB_S_LO)
    return _clenshaw(_CHEB, t) / (np.pi * x)


def _asym_fg(x: np.ndarray) -> np.ndarray:
    """Rows f(x), g(x) of A&S 7.3.9-7.3.10 for 6 < x < 1e10 (asymptotic series)."""
    pix = np.pi * x
    pix2 = pix * x
    fg = _horner(_ASYM, 1.0 / (pix2 * pix2))
    fg[0] /= pix
    fg[1] /= pix * pix2
    return fg


def _aux_fg(x: np.ndarray) -> np.ndarray:
    """Rows f(x), g(x) for 1.6 < x < 1e10, each point on its branch."""
    mid = x <= _AUX_MAX
    n = np.count_nonzero(mid)
    if n in (0, x.size):  # one branch holds every point
        return _cheb_fg(x) if n else _asym_fg(x)
    fg = np.empty((2, x.size))
    for mask, branch in ((mid, _cheb_fg), (~mid, _asym_fg)):
        if mask.any():
            fg[:, mask] = branch(x[mask])
    return fg


def _fresnel_cs_block(x: np.ndarray, c_out: np.ndarray, s_out: np.ndarray) -> None:
    """Write C(x), S(x) into c_out, s_out."""
    ax = np.abs(x)
    small = ax <= _SERIES_MAX
    if small.any():
        x1 = ax[small]
        ser = _horner(_SERIES, x1 ** 4)
        c_out[small] = x1 * ser[0]
        s_out[small] = x1 ** 3 * ser[1]

    mid = (~small) & (ax <= _AUX_MAX)
    large = (~small) & (~mid) & (ax < _HUGE)
    for mask, via_cheb in ((mid, True), (large, False)):
        if not mask.any():
            continue
        x1 = ax[mask]
        if via_cheb:
            f, g = _cheb_fg(x1)
            u = 0.5 * np.pi * x1 * x1
        else:
            f, g = _asym_fg(x1)
            u = 0.5 * np.pi * _quarter_phase(x1)
        sn, cs = np.sin(u), np.cos(u)
        c_out[mask] = 0.5 + f * sn - g * cs
        s_out[mask] = 0.5 - f * cs - g * sn

    huge = ax >= _HUGE
    if huge.any():
        c_out[huge] = 0.5
        s_out[huge] = 0.5
    sign = np.sign(x)
    c_out *= sign
    s_out *= sign


def _by_block(kernel, *arrays) -> None:
    """kernel(*arrays) on each _BLOCK-point slice of flat arrays of one size
    (its inputs, then the outputs it writes), directly when they fit one."""
    if arrays[0].size <= _BLOCK:
        return kernel(*arrays)
    for i in range(0, arrays[0].size, _BLOCK):
        kernel(*(a[i:i + _BLOCK] for a in arrays))


def fresnel_cs(x):
    """Both Fresnel integrals ``(C(x), S(x))`` in one pass.

    Accepts a scalar or an ndarray; raises ``ValueError`` for non-finite
    input.  Scalars come back as plain floats.
    """
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError("fresnel integrals require finite arguments")
    flat = arr.ravel()
    c = np.empty_like(flat)
    s = np.empty_like(flat)
    _by_block(_fresnel_cs_block, flat, c, s)
    if arr.ndim == 0:
        return float(c[0]), float(s[0])
    return c.reshape(arr.shape), s.reshape(arr.shape)


def _gain_block(g1: np.ndarray, g2: np.ndarray, p: np.ndarray, out: np.ndarray) -> None:
    """Write G at gamma1 = g1 >= 0, gamma2 = g2 >= 0 and p = g1*g2 into out
    (flat arrays of one size, already validated).

    Where x+- = g1 +- g2 both lie in (1.6, 1e10), writing C + jS through the
    auxiliary functions f, g drops the common phase pi (g1^2 + g2^2) / 2:

        G = | (g+ + j f+) e^{j pi p} - (g- + j f-) e^{-j pi p} | / (2 g2)

    f and g are smooth, so rounding x+- costs nothing, and the phase comes
    from p alone, reduced mod 2 exactly.  Other points take the difference
    of C and S; below the small-gamma2 cutoff G is |sinc(p)|.
    """
    small = 2.0 * g2 < SMALL_GAMMA2_CUTOFF
    any_small = np.count_nonzero(small)
    if any_small:
        out[small] = np.abs(np.sinc(p[small]))
        if any_small == out.size:
            return
    xp = g1 + g2
    xm = g1 - g2
    aux = (xm > _SERIES_MAX) & (xp < _HUGE)
    if any_small:
        aux &= ~small
    n = np.count_nonzero(aux)
    if n:
        # a branch that holds the whole block is taken by a plain slice
        sel = slice(None) if n == out.size else aux
        f, g = _aux_fg(np.concatenate((xp[sel], xm[sel])))
        pa = p[sel]
        phase = np.pi * (pa - 2.0 * np.trunc(0.5 * pa))
        sn, cs = np.sin(phase), np.cos(phase)
        re = (g[:n] - g[n:]) * cs - (f[:n] + f[n:]) * sn
        im = (g[:n] + g[n:]) * sn + (f[:n] - f[n:]) * cs
        out[sel] = np.hypot(re, im) / (2.0 * g2[sel])
    rest = ~(small | aux) if any_small else ~aux
    n = np.count_nonzero(rest)
    if n:
        sel = slice(None) if n == out.size else rest
        c, s = np.empty((2, 2 * n))
        _fresnel_cs_block(np.concatenate((xp[sel], xm[sel])), c, s)
        out[sel] = np.hypot(c[:n] - c[n:], s[:n] - s[n:]) / (2.0 * g2[sel])
    np.minimum(out, 1.0, out=out)  # rounding can lift G above 1, which the true G never exceeds


def _gain_pq(p, gamma2) -> np.ndarray:
    """G at the product p = gamma1*gamma2 >= 0 and gamma2 > 0, for the
    threshold solvers, which hold p fixed; arrays broadcast, no validation."""
    g1 = np.asarray(p, dtype=float) / np.asarray(gamma2, dtype=float)
    args = np.empty((3,) + g1.shape)
    args[0], args[1], args[2] = g1, gamma2, p  # broadcast copies, bit for bit
    out = np.empty(g1.size)
    _by_block(_gain_block, *args.reshape(3, -1), out)
    return out.reshape(g1.shape)


def gain_closed_form(gamma1, gamma2):
    """Normalized beamforming gain surface over the (gamma1, gamma2) plane.

        G = | [C(g1+g2) - C(g1-g2)] + j [S(g1+g2) - S(g1-g2)] | / (2 g2)

    The value lies in [0, 1] (1 = no mismatch loss) and is even in gamma1.
    Where |g1| +- g2 both exceed 1.6 it is evaluated from the Fresnel
    auxiliary functions and p = |g1|*g2 (see ``_gain_block``).  When
    ``2*gamma2 < SMALL_GAMMA2_CUTOFF`` it is the gamma2 -> 0 limit at fixed
    p, |sinc(p)|, which is exact up to O(g2^4) terms.

    Raises ``ValueError`` for negative gamma2, non-finite input, or input
    whose |gamma1|*gamma2, |gamma1| + gamma2 or 2*gamma2 overflows.
    """
    g1 = np.asarray(gamma1, dtype=float)
    g2 = np.asarray(gamma2, dtype=float)
    if not (np.isfinite(g1).all() and np.isfinite(g2).all()):
        raise ValueError("gain_closed_form requires finite gamma1, gamma2")
    if (g2 < 0).any():
        raise ValueError("gamma2 must be nonnegative")

    g1, g2 = np.broadcast_arrays(np.abs(g1), g2)
    a1, a2 = g1.ravel(), g2.ravel()
    with np.errstate(over="ignore"):
        p = a1 * a2  # finite p also keeps |gamma1| + gamma2 finite
    if not (np.isfinite(p).all() and 2.0 * float(a2.max(initial=0.0)) < np.inf):
        raise ValueError("|gamma1|*gamma2, |gamma1| + gamma2 or 2*gamma2 overflows")
    out = np.empty(a1.shape)
    _by_block(_gain_block, a1, a2, p, out)
    out = out.reshape(g1.shape)
    if out.ndim == 0:
        return float(out)
    return out


def gain_narrowband(gamma2):
    """Near-field narrowband gain |C(g2) + j S(g2)| / g2.

    Defined as the gamma1 = 0 cut of :func:`gain_closed_form` (and computed
    through it, so the identity is exact by construction); the limit at
    gamma2 = 0 is 1.
    """
    return gain_closed_form(0.0, gamma2)


def to_db(value):
    """Convert a linear amplitude-gain ratio to decibels via 10*log10.

    A value of exactly 0 maps to the ``-inf`` sentinel; negative values are
    rejected.  This 10*log10 convention is what makes a 0.95 linear gain
    correspond to the -0.22 dB threshold used by the distance metrics.
    """
    arr = np.asarray(value, dtype=float)
    if np.isnan(arr).any() or (arr < 0).any():
        raise ValueError("to_db requires nonnegative, non-NaN input")
    with np.errstate(divide="ignore"):
        out = 10.0 * np.log10(arr)
    if arr.ndim == 0:
        return float(out)
    return out
