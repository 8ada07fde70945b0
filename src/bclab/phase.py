"""Transition curves and region classification for the mean-field model.

The continuous-bifurcation curve has the closed form

    K(beta) = 1 / (2 beta c''_beta(0)) = (e^beta + 2) / (4 beta),

valid as the second-order curve for beta <= beta_c = log 4 and as the
spinodal curve beyond. The discontinuous-bifurcation curve K1(beta), defined
only implicitly, is the smallest K at which the free energy touches zero at a
strictly positive magnetization: K(beta)/(1 + rho(t1)) at the positive root
t1 of the K-free well depth f (``model.Tilt``). t1 comes from the Newton
descent in s = t^2 that ``minimize`` uses for m(beta, K).

Note on the tricritical interaction strength: it is sometimes written
"3/2 log4", which this module reads as 3/(2 log 4) = K(log 4); the two
expressions (e^beta+2)/(4 beta) and 1/(2 beta c''(0)) agree identically.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .minimize import _largest_root, _well_tilt, min_free_energy
from .model import BETA_MAX, ModelParams, Tilt, check_beta

BETA_C = math.log(4.0)
CURVE_TOL = 1e-12
MAX_CURVE_DERIV_ORDER = 12


class PhaseRegion(enum.Enum):
    SINGLE_PHASE = "single-phase"
    SECOND_ORDER_CURVE = "second-order-curve"
    FIRST_ORDER_CURVE = "first-order-curve"
    COEXISTENCE = "coexistence"
    TRICRITICAL_POINT = "tricritical-point"


def second_order_k(beta: float) -> float:
    """K(beta) = (e^beta + 2)/(4 beta); spinodal curve for beta > beta_c."""
    check_beta("second_order_k", beta)
    return (math.exp(beta) + 2.0) / (4.0 * beta)


def second_order_k_deriv(beta: float, order: int) -> float:
    """Exact order-th derivative of K(beta), order in 1..12.

    Writes K = e^beta/(4 beta) + 1/(2 beta) and applies the Leibniz rule to
    the first summand using d^r (1/beta) = (-1)^r r! / beta^(r+1).
    """
    check_beta("second_order_k_deriv", beta)
    if not isinstance(order, int) or order < 1:
        raise ValueError(f"second_order_k_deriv: order must be a positive integer, got {order}")
    if order > MAX_CURVE_DERIV_ORDER:
        raise ValueError(f"second_order_k_deriv: order {order} exceeds the supported "
                         f"cap {MAX_CURVE_DERIV_ORDER}")
    s = 0.0
    for i in range(order + 1):
        r = order - i
        s += math.comb(order, i) * (-1) ** r * math.factorial(r) / (4.0 * beta ** (r + 1))
    return math.exp(beta) * s + (-1) ** order * math.factorial(order) / (2.0 * beta ** (order + 1))


def first_order_k(beta: float) -> float:
    """The first-order curve K1(beta) for beta > beta_c, to 1e-12 absolute.

    At K1 the positive wells are as deep as G(0) = 0. The root t1 of the well
    depth f lies where f falls, concave beyond the inflection tilt of c'
    (f'' = t c'''/2 < 0), and below t0 = min(2 beta K(beta), 2 beta + 2 log 3),
    where f < 0; the cap keeps f resolved at large beta. minimize._largest_root
    finds s1 = t1^2 from (f, df/ds) (Tilt.depth), starting at the series root
    -gamma_2/(2 gamma_3) of f/s^2 = gamma_2 + 2 gamma_3 s + ... . K1 is
    K(beta)/(1 + rho(s1)), raised by the ulps min_free_energy needs to report
    the positive well there. That report is the contract classify relies on:
    the well shows at K1, at every float 8 or more ulps above it and at none
    8 or more ulps below; between, it can flicker. On 300 seeded
    beta = beta_c + 10^u, u in [-10, 2.5], it shows one ulp below K1 for 23
    and is not monotone within 20 ulps of K1 for 7; on 6,000 it showed at
    most 4 ulps below K1 and was missing at most 3 above.

    The descent takes 4-12 iterates of (f, df/ds) on [beta_c + 0.1, 10], 2-4
    beyond, and 5, 3 and 2 at beta_c + 1e-2, 1e-6, 1e-10. A solve takes 0.051
    ms on [beta_c + 0.1, 10] and 0.161 ms within 1e-3 of beta_c at a new beta,
    and 0.040 and 0.156 ms at a beta whose e^beta minimize._spinodal_excess
    has kept (median over 60 beta of the best of 5 calls, 2-core x86-64 box).
    """
    if not (math.isfinite(beta) and BETA_C < beta <= BETA_MAX):
        raise ValueError(f"first_order_k: beta must lie in (beta_c = {BETA_C}, "
                         f"{BETA_MAX}], got {beta}")
    tilt = Tilt(beta)
    t0 = min(2.0 * beta * second_order_k(beta), 2.0 * beta + 2.0 * math.log(3.0))
    w2, w3 = tilt.excess_series
    s1 = _largest_root(tilt.depth, 0.0, -0.75 * w2 / w3 if w3 < 0.0 else 0.0, t0 * t0, 0,
                       tilt.s_rise)
    k1 = second_order_k(beta) / (1.0 + tilt.secant_excess(s1)[0])
    for _ in range(64):
        if min_free_energy(ModelParams(beta, k1))[1] > 0.0:
            return k1
        k1 = math.nextafter(k1, math.inf)
    raise ArithmeticError(f"K1({beta}) = {k1} is not confirmed by min_free_energy")


def classify(params: ModelParams) -> PhaseRegion:
    """Phase region of a (beta, kappa) point, with curve tolerance 1e-12.

    K exactly on K(beta) for beta <= beta_c classifies as the second-order
    curve (the single-phase set is the closed interval 0 < K <= K(beta)).
    For beta > beta_c two well tests at K -+ 2 CURVE_TOL (minimize._well_tilt,
    on one Tilt(beta)) decide first: the report flickers only within 8 ulps
    of K1 (see first_order_k), so a well at K - 2 CURVE_TOL means
    K - K1 > CURVE_TOL (coexistence) and none at K + 2 CURVE_TOL means
    K1 - K > CURVE_TOL (single phase). A probe at K - 2 CURVE_TOL <= 0 is
    skipped. Only a point within about 2 CURVE_TOL of K1 compares K with
    first_order_k(beta). Two probes take 0.037 ms on [beta_c + 0.1, 10] and
    0.031 ms within 1e-3 of beta_c at a new beta, 0.028 and 0.027 ms at a beta
    whose e^beta minimize._spinodal_excess has kept, against 0.051 and 0.161
    ms for a new beta's K1 solve, at K 1-20% off K1 (median over 60 beta of the
    best of 5 calls, 2-core x86-64 box).
    """
    beta, kappa = params.beta, params.kappa
    if beta <= BETA_C + CURVE_TOL:
        k_curve = second_order_k(beta)
        if abs(kappa - k_curve) <= CURVE_TOL:
            if abs(beta - BETA_C) <= CURVE_TOL:
                return PhaseRegion.TRICRITICAL_POINT
            return PhaseRegion.SECOND_ORDER_CURVE
        if kappa < k_curve:
            return PhaseRegion.SINGLE_PHASE
        return PhaseRegion.COEXISTENCE
    tilt, delta = Tilt(beta), 2.0 * CURVE_TOL
    if kappa > delta and _well_tilt(ModelParams(beta, kappa - delta), tilt):
        return PhaseRegion.COEXISTENCE
    if not _well_tilt(ModelParams(beta, kappa + delta), tilt):
        return PhaseRegion.SINGLE_PHASE
    k1 = first_order_k(beta)
    if abs(kappa - k1) <= CURVE_TOL:
        return PhaseRegion.FIRST_ORDER_CURVE
    if kappa < k1:
        return PhaseRegion.SINGLE_PHASE
    return PhaseRegion.COEXISTENCE


@dataclass(frozen=True)
class CriticalConstants:
    """Tricritical location and the conjectured curvature ell_c of K1 there."""

    beta_c: float
    k_at_beta_c: float
    ell_c: float


def critical_constants() -> CriticalConstants:
    return CriticalConstants(
        beta_c=BETA_C,
        k_at_beta_c=second_order_k(BETA_C),
        ell_c=second_order_k_deriv(BETA_C, 2) - 5.0 / (4.0 * BETA_C),
    )


@dataclass(frozen=True)
class ConjectureRow:
    h: float
    k1_prime_est: float
    k1_second_est: float


@dataclass(frozen=True)
class TricriticalConjectureReport:
    rows: tuple[ConjectureRow, ...]
    k_prime_ref: float
    ell_c_ref: float


def verify_tricritical_conjectures(h_grid=(1e-2, 1e-3)) -> TricriticalConjectureReport:
    """One-sided finite-difference estimates of K1'(beta_c) and K1''(beta_c).

    Uses the continuous extension K1(beta_c) = K(beta_c). The caller asserts
    that |K1_prime_est - K'(beta_c)| and |K1_second_est - ell_c| shrink along
    a decreasing h grid; this routine only reports the estimates next to the
    closed-form references.
    """
    h_grid = [float(h) for h in h_grid]
    if not h_grid:
        raise ValueError("verify_tricritical_conjectures: h_grid must hold at least one h")
    if any(h < 1e-5 for h in h_grid):
        raise ValueError("verify_tricritical_conjectures: h_grid entries must be "
                         ">= 1e-5; below it the second difference of K1 is "
                         "rounding noise (~4e-16/h^2)")
    if any(b >= a for a, b in zip(h_grid, h_grid[1:])):
        raise ValueError("verify_tricritical_conjectures: h_grid must be strictly decreasing")
    k0 = second_order_k(BETA_C)
    rows = []
    for h in h_grid:
        k1h = first_order_k(BETA_C + h)
        k12h = first_order_k(BETA_C + 2 * h)
        rows.append(ConjectureRow(
            h=h,
            k1_prime_est=(k1h - k0) / h,
            k1_second_est=(k12h - 2 * k1h + k0) / (h * h),
        ))
    cc = critical_constants()
    return TricriticalConjectureReport(
        rows=tuple(rows),
        k_prime_ref=second_order_k_deriv(BETA_C, 1),
        ell_c_ref=cc.ell_c,
    )

