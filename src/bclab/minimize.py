"""The global minimum of the free-energy functional, solved in the tilt.

``min_free_energy`` is the one equilibrium solver behind m(beta, K), the
first-order curve and the normalization of e^{-n G} integrals.
"""

from __future__ import annotations

import decimal

from .model import (ModelParams, cumulant_deriv, free_energy, inflection_tilt,
                    secant_excess, well_depth)


def _spinodal_excess(beta: float, kappa: float) -> float:
    """K(beta)/K - 1 = (e^beta + 2 - 4 beta K)/(4 beta K). m(beta, K) near the
    second-order curve is as sensitive to this difference as to K itself, so
    its numerator is formed in 40-digit decimal arithmetic."""
    with decimal.localcontext(decimal.Context(prec=40)):
        b = decimal.Decimal(beta)
        num = b.exp() + 2 - 4 * b * decimal.Decimal(kappa)
    return float(num) / (4.0 * beta * kappa)


def min_free_energy(params: ModelParams) -> tuple[float, float]:
    """Global minimum (value, argmin) of G_{beta,K} on [0, 1].

    The positive well is x = c'(t) at the largest root t of g(t) = t - 2 beta K
    c'(t). g(2 beta K) > 0 and g is convex beyond the inflection tilt t_i of c',
    which lies below any largest root, so Newton from 2 beta K descends onto it;
    a step below t_i or a nonpositive slope shows there is none. The residual
    g = t (rho_K - rho(t))/(1 + rho_K) keeps its precision near K(beta). The
    well is the global minimum if its depth f(t) <= 0 = G(0) (ties resolve
    toward it); otherwise the minimum is (0, 0).
    """
    beta, two_bk = params.beta, 2.0 * params.beta * params.kappa
    rho_k = _spinodal_excess(beta, params.kappa)
    t_i = inflection_tilt(beta)
    t = two_bk if rho_k < 0.0 or t_i > 0.0 else 0.0   # else no root: c'(t)/t < c''(0)
    for _ in range(200):
        slope = 1.0 - two_bk * cumulant_deriv(beta, t, 2)
        if t <= t_i or slope <= 0.0:
            return 0.0, 0.0
        t_next = t - t * (rho_k - secant_excess(beta, t)) / ((1.0 + rho_k) * slope)
        if t_next >= t:
            if well_depth(beta, t) > 0.0:
                return 0.0, 0.0
            m = cumulant_deriv(beta, t, 1)
            return free_energy(params, m), m
        t = t_next
    raise ArithmeticError(f"stationary tilt at {params} did not converge")


def magnetization(params: ModelParams) -> float:
    """Largest global minimizer of G_{beta,K} on [0, 1] (the value m(beta, K))."""
    return min_free_energy(params)[1]
