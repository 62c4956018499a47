"""Adaptive Gauss-Kronrod quadrature of the Fresnel integrands.

Verification-only module: it evaluates C and S directly from their
defining integrals so the closed-form implementation in
:mod:`nearband.fresnel` can be checked against a fully independent path.
Nothing in the production code calls into this module; it backs the
``verify`` CLI subcommand and the test suite.

The integrator is a panel-adaptive (G7, K15) pair.  Panels are seeded
fine enough to resolve the local oscillation of cos(pi t^2 / 2) and any
panel whose embedded error estimate exceeds the tolerance is bisected.
Many arguments are handled in one pass by integrating once over the
union of segments and accumulating prefix sums.
"""

from __future__ import annotations

import numpy as np

__all__ = ["quadrature_cs"]

# Gauss 7 / Kronrod 15 nodes and weights on [-1, 1].
_KRONROD_X = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_KRONROD_W = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_GAUSS_W = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])
_GAUSS_IDX = np.arange(1, 15, 2)
# K15-G7 error estimate a panel may keep (scaled by its length above 1).
_TOL = 1e-12


def _panel_integrals(lo: np.ndarray, hi: np.ndarray):
    """(K15 value, |K15-G7| estimate) of cos+i*sin(pi t^2/2) per panel."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    t = mid[:, None] + half[:, None] * _KRONROD_X[None, :]
    f = np.exp(1j * (0.5 * np.pi) * t * t)
    k15 = half * (f @ _KRONROD_W)
    g7 = half * (f[:, _GAUSS_IDX] @ _GAUSS_W)
    return k15, np.abs(k15 - g7)


def _integrate_panels(points: np.ndarray) -> np.ndarray:
    """Integral of exp(i pi t^2/2) over each [points[k], points[k+1]]."""
    lo = points[:-1].copy()
    hi = points[1:].copy()
    owner = np.arange(lo.size)
    total = np.zeros(lo.size, dtype=complex)
    # a couple of bisection rounds is plenty; the seeding already resolves
    # the oscillation, so this loop terminates almost immediately
    for _ in range(40):
        if lo.size == 0:
            break
        val, err = _panel_integrals(lo, hi)
        ok = err <= _TOL * np.maximum(1.0, hi - lo)
        np.add.at(total, owner[ok], val[ok])
        bad = ~ok
        if not bad.any():
            break
        mid = 0.5 * (lo[bad] + hi[bad])
        lo = np.concatenate([lo[bad], mid])
        hi = np.concatenate([mid, hi[bad]])
        owner = np.concatenate([owner[bad], owner[bad]])
    else:  # pragma: no cover - defensive
        raise RuntimeError("quadrature failed to converge")
    return total


def quadrature_cs(x):
    """Fresnel C and S by direct adaptive quadrature of the integrands.

    ``x`` may be a scalar or array.  All magnitudes are folded to one
    cumulative integration over [0, max|x|] whose breakpoints include every
    requested point, then mapped back through oddness.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.isfinite(arr).all():
        raise ValueError("quadrature oracle requires finite arguments")
    mags = np.abs(arr)
    targets = np.unique(mags[mags > 0])

    # breakpoints: every target plus oscillation-resolving seed points
    # (local period of cos(pi t^2/2) is ~2/t, keep <= ~1/4 period per panel)
    top = targets[-1] if targets.size else 0.0
    seeds = [np.array([0.0]), targets]
    t = 0.0
    extra = []
    while t < top:
        t += min(0.5, 0.5 / max(t, 1.0))
        if t < top:
            extra.append(t)
    if extra:
        seeds.append(np.array(extra))
    points = np.unique(np.concatenate(seeds))

    segment = _integrate_panels(points)
    prefix = np.concatenate([[0.0 + 0.0j], np.cumsum(segment)])
    value_at = dict(zip(points.tolist(), prefix.tolist()))

    c = np.empty(arr.shape)
    s = np.empty(arr.shape)
    flat_c, flat_s = c.ravel(), s.ravel()
    for i, xi in enumerate(arr.ravel()):
        v = value_at[abs(xi)] if xi != 0 else 0.0
        flat_c[i] = np.sign(xi) * v.real if xi != 0 else 0.0
        flat_s[i] = np.sign(xi) * v.imag if xi != 0 else 0.0
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(c[0]), float(s[0])
    return c, s
