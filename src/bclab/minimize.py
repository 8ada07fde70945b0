"""The global minimum of the free-energy functional, solved in the tilt.

``min_free_energy`` is the one equilibrium solver behind m(beta, K) and the
first-order curve; ``ScaledFreeEnergy``, the exponent n G(y/n^gamma) of every
e^{-n G} integral, windows its weight at the wells of the same tilt.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass

from .model import ModelParams, Tilt, cumulant_deriv, free_energy, free_energy_deriv
from .quadrature import tail_cutoff


def _spinodal_excess(beta: float, kappa: float) -> float:
    """K(beta)/K - 1 = (e^beta + 2 - 4 beta K)/(4 beta K). m(beta, K) near the
    second-order curve is as sensitive to this difference as to K itself, so
    its numerator is formed in 40-digit decimal arithmetic."""
    with decimal.localcontext(decimal.Context(prec=40)):
        b = decimal.Decimal(beta)
        num = b.exp() + 2 - 4 * b * decimal.Decimal(kappa)
    return float(num) / (4.0 * beta * kappa)


def _outer_tilt(params: ModelParams, tilt: Tilt) -> float:
    """Largest root t of g(t) = t - 2 beta K c'(t), or 0.0 when there is none.

    g(2 beta K) > 0 and g is convex beyond the inflection tilt t_i of c',
    which lies below any largest root, so Newton from 2 beta K descends onto
    it; a step below t_i or a nonpositive slope shows there is none. The
    residual g = t (rho_K - rho(t))/(1 + rho_K) keeps its precision near K(beta).
    """
    beta, two_bk = params.beta, 2.0 * params.beta * params.kappa
    rho_k = _spinodal_excess(beta, params.kappa)
    t_i = tilt.inflection
    t = two_bk if rho_k < 0.0 or t_i > 0.0 else 0.0   # else no root: c'(t)/t < c''(0)
    for _ in range(200):
        slope = 1.0 - two_bk * cumulant_deriv(beta, t, 2)
        if t <= t_i or slope <= 0.0:
            return 0.0
        t_next = t - t * (rho_k - tilt.secant_excess(t)) / ((1.0 + rho_k) * slope)
        if t_next >= t:
            return t
        t = t_next
    raise ArithmeticError(f"stationary tilt at {params} did not converge")


def min_free_energy(params: ModelParams) -> tuple[float, float]:
    """Global minimum (value, argmin) of G_{beta,K} on [0, 1]: the well c'(t) at
    the outer tilt t if its depth f(t) <= 0 = G(0) (ties resolve toward it), else (0, 0)."""
    tilt = Tilt(params.beta)
    t = _outer_tilt(params, tilt)
    if t == 0.0 or tilt.depth(t)[0] > 0.0:
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
