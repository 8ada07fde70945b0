"""The global minimum of the free-energy functional, solved in the tilt.

One well test in the tilt, ``_well_tilt``, is the equilibrium solver behind
``min_free_energy``, m(beta, K), the first-order curve and the region of a
point; ``ScaledFreeEnergy``, the exponent n G(y/n^gamma) of every e^{-n G}
integral, windows its weight at the wells of the same tilt by ``weight_window``,
the window rule of every e^-phi integral. Each asks the per-beta solver state,
one model.Tilt from ``_tilt``, for rho_K and the tilt functions.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

from .model import ModelParams, Tilt, cumulant_deriv, free_energy, free_energy_deriv

TAIL_CUT = 60.0   # weight_window's margin: beyond it a weight is below e^-60 of its peak
_TILT_CACHE_SIZE = 64   # the last beta whose Tilt the solvers keep
# Tilt(beta) for every solve at beta; a kept one answers as a new one, to the bit.
_tilt = functools.lru_cache(maxsize=_TILT_CACHE_SIZE)(Tilt)


def _largest_root(pair, level: float, s: float, s_right: float, power: int, floor: float) -> float:
    """The largest root in s = t^2 of h = v - level, pair(s) = (v(s), dv/ds),
    or 0.0 if there is none: h rises (or not at all), then falls to below 0 at
    s_right, and phi(t) = t^power h(t^2) is concave where h falls. A series
    start s is used in (floor, min(1, s_right)). Newton in s alone can cross
    the root either way, so each step takes the larger of Newton's zero in s
    and the zero of the tangent to phi in t, which lies above phi and so, where
    h falls, not below the root. After the first step the iterates fall
    monotonically, at least as fast as Newton in t, until a step falls by at
    most 1e-15 s (its end is returned) or, by rounding noise, not at all. An
    iterate where h rises, or below floor (Tilt.s_rise: no pair is taken), lies
    below any root: there is none (a start there restarts at s_right).
    """
    if not floor < s < 1.0 or s >= s_right:
        s = s_right
    for step in range(200):
        if s < floor:
            return 0.0
        h, dh = pair(s)
        h -= level
        slope = power * h + 2.0 * s * dh          # t^(1 - power) phi'(t)
        ratio = 1.0 - h / slope if slope < 0.0 else 0.0   # tangent zero / t
        if dh < 0.0 and ratio > 0.0:
            s_next = s - h / dh
            if s_next < s * ratio * ratio:
                s_next = s * ratio * ratio
            fall = s - s_next
            if fall <= 1e-15 * s:
                if fall >= -1e-15 * s:
                    return s_next
                if step:
                    return s
        elif step == 0 and s < s_right:
            s_next = s_right
        else:
            return 0.0
        s = s_next
    raise ArithmeticError(f"Newton descent in s from {s} did not converge in 200 steps")


def _outer_tilt(kappa: float, tilt: Tilt) -> float:
    """Largest root t of t = 2 beta K c'(t) at K = kappa and beta = tilt.beta,
    or 0.0 when there is none.

    s = t^2 solves rho(s) = rho_K = K(beta)/K - 1 where the secant excess rho
    (Tilt.secant_excess) falls; rho_K (Tilt.spinodal_excess) is exact to the
    rounding, so the residual keeps its precision near K(beta). _largest_root
    starts at the outer root of w2 s + w3 s^2 = rho_K (Tilt.excess_series):
    t (rho - rho_K) = (2 beta K c'(t) - t)/(2 beta K c''(0)) is concave where
    rho falls, as c' is. Below beta_c rho falls from 0: no root for rho_K >= 0.
    Where K(beta)/K rounds to -1 (K above about 1e16 K(beta)) or (2 beta K)^2
    overflows, c'(2 beta K) = 1 and 2 beta K, or the largest float, is the root.
    """
    two_bk = 2.0 * tilt.beta * kappa
    rho_k = tilt.spinodal_excess(kappa)
    if rho_k == -1.0 or two_bk * two_bk == math.inf:
        return min(two_bk, sys.float_info.max)
    w2, w3 = tilt.excess_series
    if rho_k >= 0.0 and w2 <= 0.0:
        return 0.0
    disc = w2 * w2 + 4.0 * w3 * rho_k
    den = w2 - math.sqrt(disc) if disc > 0.0 else 0.0
    s = 2.0 * rho_k / den if den else 0.0
    return math.sqrt(_largest_root(tilt.secant_excess, rho_k, s, two_bk * two_bk, 1, tilt.s_rise))


def _well_tilt(kappa: float, tilt: Tilt) -> float:
    """The outer tilt t if G_{beta,K} has its global minimum at the well
    c'(t) > 0, else 0.0: t > 0 and the depth f <= 0 = G(0) at s = t^2 (ties
    resolve toward the well), or t^2 overflows, the ordered limit f ~ -t/2.
    tilt is the Tilt of beta, which callers testing several K at one beta
    share. The report is monotone in K but within 8 ulps of K1(beta), which
    phase.classify relies on."""
    t = _outer_tilt(kappa, tilt)
    return t if t > 0.0 and (t * t == math.inf or tilt.depth(t * t)[0] <= 0.0) else 0.0


def min_free_energy(params: ModelParams) -> tuple[float, float]:
    """Global minimum (value, argmin) of G_{beta,K} on [0, 1]: the well c'(t)
    at the tilt of _well_tilt, else (0, 0)."""
    t = _well_tilt(params.kappa, _tilt(params.beta))
    if t == 0.0:
        return 0.0, 0.0
    m = cumulant_deriv(params.beta, t, 1)
    return free_energy(params, m), m


def magnetization(params: ModelParams) -> float:
    """Largest global minimizer of G_{beta,K} on [0, 1] (the value m(beta, K))."""
    return min_free_energy(params)[1]


def weight_window(phi, outer: float, points=()) -> tuple[float, float, tuple[float, ...]]:
    """(floor, cutoff, break_points) of the weight e^(floor - phi) of every
    e^-phi integral, phi even and coercive with no stationary point beyond
    outer >= 0: floor = min(0, phi(outer)) is its minimum, so the weight peaks
    at 1 however deep the wells, and past cutoff, the smallest power of two X
    >= max(1, outer) with phi(X) >= floor + TAIL_CUT, it stays below
    e^-TAIL_CUT (at worst X overflows to inf, where the test fails). The break
    points are +-outer when outer > 0, then points."""
    floor = min(0.0, float(phi(outer)))
    x = 1.0
    while x < outer or phi(x) < floor + TAIL_CUT:
        x *= 2.0
    return floor, x, ((-outer, outer) if outer > 0.0 else ()) + tuple(points)


@dataclass(frozen=True)
class ScaledFreeEnergy:
    """phi(y) = speed G_{beta,K}(y/scale); with speed n and scale n^gamma, the
    exponent of the smoothed spin density e^{-n G(y/n^gamma)}."""

    params: ModelParams
    speed: float
    scale: float

    def __call__(self, y):
        return self.speed * free_energy(self.params, y / self.scale)

    def weight_window(self) -> tuple[float, float, tuple[float, ...]]:
        """weight_window at the outer well scale c'(t) of the outer tilt t, each
        well y in {0, +-outer} with phi''(y) > 0 flanked at y +- 8 phi''(y)^-1/2."""
        t = _outer_tilt(self.params.kappa, _tilt(self.params.beta))
        outer = self.scale * cumulant_deriv(self.params.beta, t, 1)
        points = []
        for y in (0.0, outer, -outer):
            curv = self.speed / self.scale**2 * free_energy_deriv(self.params, y / self.scale, 2)
            if curv > 0.0:
                points += [y - 8.0 / math.sqrt(curv), y + 8.0 / math.sqrt(curv)]
        return weight_window(self, outer, points)
