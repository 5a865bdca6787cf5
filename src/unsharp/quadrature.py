"""Two independent numerical integration routes.

:func:`adaptive_simpson` recursively halves panels, accepting a panel when the
Richardson comparison of the half-panel rule against the whole-panel rule is
within the local budget; the accumulated estimate bounds the absolute error
for integrands smooth on the panel (callers split at knots first).

:func:`gauss_legendre` integrates with a composite 10-point Gauss-Legendre
rule, doubling the panel count until two successive refinements agree within
the budget.  The two routes share no mesh, which is what makes cross-checking
one against the other meaningful.
"""

from __future__ import annotations

import math

from .errors import QuadratureFailure

# 10-point Gauss-Legendre nodes and weights on [-1, 1].
_GL10 = (
    (-0.9739065285171717, 0.06667134430868814),
    (-0.8650633666889845, 0.14945134915058059),
    (-0.6794095682990244, 0.21908636251598204),
    (-0.4333953941292472, 0.26926671930999635),
    (-0.14887433898163122, 0.29552422471475287),
    (0.14887433898163122, 0.29552422471475287),
    (0.4333953941292472, 0.26926671930999635),
    (0.6794095682990244, 0.21908636251598204),
    (0.8650633666889845, 0.14945134915058059),
    (0.9739065285171717, 0.06667134430868814),
)

_MAX_DEPTH = 48
# panel-count doublings gauss_legendre tries before it fails
_MAX_DOUBLINGS = 16


def _simpson_recurse(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    h6 = (b - a) / 12.0
    left = h6 * (fa + 4.0 * flm + fm)
    right = h6 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0, abs(delta) / 15.0
    if depth <= 0:
        raise QuadratureFailure(
            f"adaptive Simpson did not reach tolerance on [{a}, {b}]"
        )
    lv, le = _simpson_recurse(f, a, fa, m, fm, lm, flm, left, tol / 2.0, depth - 1)
    rv, re_ = _simpson_recurse(f, m, fm, b, fb, rm, frm, right, tol / 2.0, depth - 1)
    return lv + rv, le + re_


def adaptive_simpson(f, a: float, b: float, tol: float) -> float:
    """Integrate ``f`` over [a, b] with estimated absolute error <= tol."""
    a, b = float(a), float(b)
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    if a == b:
        return 0.0
    if a > b:
        return -adaptive_simpson(f, b, a, tol)
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    value, _err = _simpson_recurse(f, a, fa, b, fb, m, fm, whole, tol, _MAX_DEPTH)
    return value


def adaptive_simpson_pieces(f, knots, tol: float) -> float:
    """Integrate across the sorted breakpoints in ``knots`` (length >= 2),
    splitting the budget proportionally to panel width; a share that
    underflows to 0.0 is the smallest positive float instead."""
    if not tol > 0:  # checked here: a share of 0 would become positive
        raise ValueError("tolerance must be positive")
    knots = [float(k) for k in knots]
    total_width = knots[-1] - knots[0]
    if total_width <= 0:
        return 0.0
    value = 0.0
    for a, b in zip(knots, knots[1:]):
        if b > a:
            value += adaptive_simpson(f, a, b, tol * (b - a) / total_width or math.ulp(0.0))
    return value


def _gl_panel(f, a, b):
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    return h * sum(w * f(c + h * x) for x, w in _GL10)


def _gl_composite(f, knots, panels_per_piece):
    total = 0.0
    for a, b in zip(knots, knots[1:]):
        if b <= a:
            continue
        step = (b - a) / panels_per_piece
        for i in range(panels_per_piece):
            total += _gl_panel(f, a + i * step, a + (i + 1) * step)
    return total


def gauss_legendre(f, knots, tol: float) -> float:
    """Composite 10-point Gauss-Legendre over the breakpoints in ``knots``,
    doubling panel counts until two refinements agree within ``tol``."""
    knots = [float(k) for k in knots]
    if len(knots) < 2 or knots[-1] <= knots[0]:
        return 0.0
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    panels = 1
    prev = _gl_composite(f, knots, panels)
    for _ in range(_MAX_DOUBLINGS):
        panels *= 2
        cur = _gl_composite(f, knots, panels)
        if abs(cur - prev) <= tol:
            return cur
        prev = cur
    raise QuadratureFailure("Gauss-Legendre refinement did not converge")
