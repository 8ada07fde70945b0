"""The global minimum of the free-energy functional, solved in the tilt.

One well test in the tilt, ``_well_tilt``, is the equilibrium solver behind
``min_free_energy``, m(beta, K), the first-order curve and the region of a
point; ``ScaledFreeEnergy``, the exponent n G(y/n^gamma) of every
e^{-n G} integral, windows its weight at the wells of the same tilt.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .model import ModelParams, Tilt, cumulant_deriv, free_energy, free_energy_deriv
from .quadrature import tail_cutoff

_EXP_BITS = 128                                    # fractional bits of e^r
_LN2 = 0xB17217F7D1CF79ABC9E3B39803F2F6AF41        # log 2 * 2^136, rounded


def _spinodal_excess(beta: float, kappa: float) -> float:
    """K(beta)/K - 1 = (e^beta + 2 - 4 beta K)/(4 beta K), its numerator
    rounded once from exact integer arithmetic.

    m(beta, K) near the second-order curve is as sensitive to this difference
    as to K itself, and there the numerator cancels to a few ulps of e^beta.
    Floats cannot form it: a float e^beta is itself up to half an ulp off, and
    4 beta K takes 106 bits. So beta and K are read as exact dyadic
    rationals, and e^beta = 2^k e^r, k = round(beta/log 2), |r| <= 0.35, is
    summed as the Taylor series of e^r in integers at 2^-128 (log 2 at
    2^-136). The numerator is then within 2^-121 e^beta of its exact value,
    and int / int rounds it once. Below beta = 0.35 (k = 0) every truncation
    is downward, and half a unit is added before the rounding: the part of
    e^beta - 1 lost below 2^-128 is positive, so an exact tie of the rest
    rounds up, as the exact numerator does. K(beta)/K below the floats gives
    -1.0, above them inf.
    """
    den = 4.0 * beta * kappa
    if den == math.inf:
        return -1.0
    if den == 0.0:
        return math.inf
    bn, bd = beta.as_integer_ratio()
    kn, kd = kappa.as_integer_ratio()
    k = round(beta / math.log(2.0))
    r = ((bn << _EXP_BITS + 8) // bd - k * _LN2) >> 8
    term = exp_r = 1 << _EXP_BITS
    n = 0
    while term:
        n += 1
        term = (term * r >> _EXP_BITS) // n
        exp_r += term
    # 2^129 bd kd times the numerator plus half a unit
    d = bd * kd
    num = (2 * ((exp_r << k) + (2 << _EXP_BITS)) + 1) * d - (bn * kn << _EXP_BITS + 3)
    return num / (d << _EXP_BITS + 1) / den


def _outer_tilt(params: ModelParams, tilt: Tilt) -> float:
    """Largest root t of g(t) = t - 2 beta K c'(t), or 0.0 when there is none.

    g(2 beta K) > 0 and g is convex beyond the inflection tilt t_i of c',
    which lies below any largest root, so Newton from 2 beta K descends onto
    it; a step below t_i or a nonpositive slope shows there is none. The
    residual g = t (rho_K - rho(t))/(1 + rho_K) keeps its precision near
    K(beta). Where K(beta)/K rounds to 0 (K above about 1e16 K(beta)),
    c'(2 beta K) = 1 and 2 beta K is the root; where 2 beta K overflows, the
    largest float stands for it (c' is 1.0 and the depth finite there).
    """
    beta, two_bk = params.beta, 2.0 * params.beta * params.kappa
    rho_k = _spinodal_excess(beta, params.kappa)
    if rho_k == -1.0:
        return min(two_bk, sys.float_info.max)
    t_i = tilt.inflection
    t = two_bk if rho_k < 0.0 or t_i > 0.0 else 0.0   # else no root: c'(t)/t < c''(0)
    for _ in range(200):
        if t <= t_i:
            return 0.0
        rho, c2 = tilt.excess_and_curvature(t)
        slope = 1.0 - two_bk * c2
        if slope <= 0.0:
            return 0.0
        t_next = t - t * (rho_k - rho) / ((1.0 + rho_k) * slope)
        if t_next >= t:
            return t
        t = t_next
    raise ArithmeticError(f"stationary tilt at {params} did not converge")


def _well_tilt(params: ModelParams, tilt: Tilt) -> float:
    """The outer tilt t if G_{beta,K} has its global minimum at the well
    c'(t) > 0, else 0.0: t > 0 and the depth f(t) <= 0 = G(0) (ties resolve
    toward the well). tilt is Tilt(params.beta), which callers testing
    several K at one beta share. The report is monotone in K but for the
    last ulps around K1(beta), which phase.classify relies on."""
    t = _outer_tilt(params, tilt)
    return t if t > 0.0 and tilt.depth(t)[0] <= 0.0 else 0.0


def min_free_energy(params: ModelParams) -> tuple[float, float]:
    """Global minimum (value, argmin) of G_{beta,K} on [0, 1]: the well c'(t)
    at the tilt of _well_tilt, else (0, 0)."""
    t = _well_tilt(params, Tilt(params.beta))
    if t == 0.0:
        return 0.0, 0.0
    m = cumulant_deriv(params.beta, t, 1)
    return free_energy(params, m), m


def magnetization(params: ModelParams) -> float:
    """Largest global minimizer of G_{beta,K} on [0, 1] (the value m(beta, K))."""
    return min_free_energy(params)[1]


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
        """(floor, cutoff, break_points) as EvenPolynomial.weight_window, at the
        outer well scale c'(t) of the outer tilt t; each well y in {0, +-outer}
        with phi''(y) > 0 is flanked at y +- 8 phi''(y)^-1/2, on panels of its own."""
        t = _outer_tilt(self.params, Tilt(self.params.beta))
        outer = self.scale * cumulant_deriv(self.params.beta, t, 1)
        floor = min(0.0, self(outer))
        points = [-outer, outer]
        for y in (0.0, outer, -outer):
            curv = self.speed / self.scale**2 * free_energy_deriv(self.params, y / self.scale, 2)
            if curv > 0.0:
                points += [y - 8.0 / math.sqrt(curv), y + 8.0 / math.sqrt(curv)]
        return floor, tail_cutoff(self, floor, outer), tuple(points)
