"""Quadrature helpers for expectations against exp(-phi) weights and
Gaussian-smoothed lattice laws.

An exponent phi (EvenPolynomial, ScaledFreeEnergy) states the weight window
weighted_ratio reads, by the one rule minimize.weight_window at its wells.

Improper integrals run a globally adaptive 21-point Gauss-Kronrod rule, the
qk21 rule of QUADPACK (Piessens et al., 1983). Each panel's error estimate is
QUADPACK's heuristic resasc * min(1, (200 |K21 - G10| / resasc)^1.5), where
G10 is the embedded 10-point Gauss rule and resasc the K21 integral of
|f - mean f| over the panel. The panels start split at the break points,
and the worst one is bisected until the summed estimate is at most
max(1e-14, REL_TOL |value|) or 400 panels exist. As in QUADPACK, the
bisection stops when the worst panel is about 100 ulps wide. A summed
estimate left above max(1e-12, 10 REL_TOL |value|) raises QuadratureError.

Gaussian mixtures (finite_size.hs_lhs) take the same K21 rule on fixed panels,
eight 3 sigma wide across each component's mean +- 12 sigma and split at the
kinks of the integrand, with every component integrated at once.
"""

from __future__ import annotations

import heapq
import math
import operator
import sys

import numpy as np

# Relative tolerance of every improper integral.
REL_TOL = 1e-10


class QuadratureError(RuntimeError):
    """Raised when an integral cannot be resolved to the requested tolerance."""


# QUADPACK's qk21 on [0, 1]: the Kronrod nodes, largest first, and their
# weights; the 10-point Gauss rule uses every other node from the second.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
# the same rules on [-1, 1], mirrored through the centre node; _gk21 reads them
# as Python floats, as on 21 values plain float sums cost less than an array
_K21_X, _K21_W = np.concatenate((_XGK, -_XGK[-2::-1])), np.concatenate((_WGK, _WGK[-2::-1]))
_GK21_NODES, _K21_WEIGHTS = _K21_X.tolist(), _K21_W.tolist()
_G10_WEIGHTS = np.concatenate((_WG, _WG[::-1])).tolist()   # at nodes 1, 3, ..., 19
_MAX_PANELS = 400
_EPS, _TINY = sys.float_info.epsilon, sys.float_info.min


def _gk21(f, lo: float, hi: float) -> tuple[float, float, float, float]:
    """The panel (-err, lo, hi, value) for the heap of _quad: the K21 integral
    of f on [lo, hi] and its QUADPACK error estimate err."""
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    # f gets Python floats, which model's one dispatcher hands to its math kernels
    fx = [f(centre + half * x) for x in _GK21_NODES]
    kronrod = sum(map(operator.mul, _K21_WEIGHTS, fx))
    err = abs((kronrod - sum(map(operator.mul, _G10_WEIGHTS, fx[1::2]))) * half)
    mean = 0.5 * kronrod
    resasc = sum(map(operator.mul, _K21_WEIGHTS, [abs(v - mean) for v in fx])) * abs(half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return -err, lo, hi, kronrod * half


def _quad(f, lo: float, hi: float, points):
    cuts = [lo, *sorted({p for p in points if lo < p < hi}), hi]
    panels = [_gk21(f, a, b) for a, b in zip(cuts, cuts[1:])]
    heapq.heapify(panels)
    while True:
        val = math.fsum(p[3] for p in panels)
        err = -math.fsum(p[0] for p in panels)
        if len(panels) >= _MAX_PANELS or err <= max(1e-14, REL_TOL * abs(val)):
            break
        _, a, b, _ = heapq.heappop(panels)
        mid = 0.5 * (a + b)
        # QUADPACK's stop for bad integrand behaviour: the worst panel has
        # shrunk to about 100 ulps, say around a singularity
        if max(abs(a), abs(b)) <= (1.0 + 100.0 * _EPS) * (abs(mid) + 1000.0 * _TINY):
            break
        heapq.heappush(panels, _gk21(f, a, mid))
        heapq.heappush(panels, _gk21(f, mid, b))
    if err > max(1e-12, 10 * REL_TOL * abs(val)):
        raise QuadratureError(f"weighted_ratio: integral did not converge: value {val:.6g}, "
                              f"achieved abs error {err:.3g}")
    return val


def weighted_ratio(f, phi, points=()) -> float:
    """(integral of f e^-phi) / (integral of e^-phi) for an even exponent phi.

    phi.weight_window() gives (floor, cutoff, break_points): the weight
    e^(floor - phi) is even, so both integrals run over [0, cutoff] against
    the even part (f(x) + f(-x))/2 of f, split at |p| for the break points
    and for points, the integrable kinks of f. An odd f gives exactly 0.
    Raises QuadratureError when the weight integrates to 0 or to no finite
    number."""
    floor, cutoff, breaks = phi.weight_window()
    points = [abs(p) for p in (*points, *breaks)]
    den = _quad(lambda x: math.exp(floor - phi(x)), 0.0, cutoff, points)
    if den == 0.0 or not math.isfinite(den):
        raise QuadratureError(
            f"weighted_ratio: the weight integral on [0, {cutoff:.6g}] "
            f"is {den}, not a positive finite number")
    num = _quad(lambda x: 0.5 * (f(x) + f(-x)) * math.exp(floor - phi(x)),
                0.0, cutoff, points)
    return num / den


def gaussian_mixture_expectation(f, means, probs, sigma: float, kinks=()) -> float:
    """E[f(X)] for the mixture sum_s probs[s] * N(means[s], sigma^2).

    Eight panels 3 sigma wide cover each component's mean +- 12 sigma (all
    but 3.6e-33 of its mass), split at the kinks of f (e.g. min(|x|, j))
    clipped to them, and each piece takes the K21 rule, on arrays of
    components x (kinks + 1) x 21 nodes. Within 1e-14 relative of 40-digit
    mpmath closed forms of E|X|, E min(|X|, j) and E X^2.
    """
    means = np.asarray(means, dtype=float)[:, None]
    probs = np.asarray(probs, dtype=float)
    if sigma <= 0:
        raise ValueError("gaussian_mixture_expectation: sigma must be > 0")
    kinks = np.sort(np.asarray(kinks, dtype=float))
    acc = np.zeros(len(probs))
    for edge in range(-12, 12, 3):
        lo, hi = means + edge * sigma, means + (edge + 3) * sigma
        cuts = np.concatenate((lo, np.clip(kinks, lo, hi), hi), axis=1)
        mid, half = 0.5 * (cuts[:, 1:] + cuts[:, :-1]), 0.5 * np.diff(cuts)
        x = mid[..., None] + half[..., None] * _K21_X
        acc += (f(x) * np.exp(-0.5 * ((x - means[..., None]) / sigma) ** 2) @ _K21_W
                * half).sum(axis=1)
    return float(probs @ acc) / (sigma * math.sqrt(2.0 * math.pi))


def aitken_limit(values) -> float:
    """Aitken delta-squared extrapolation from the last three entries.

    Falls back to the final value when the second difference vanishes.
    """
    if len(values) < 3:
        raise ValueError("aitken_limit: need at least three values to extrapolate")
    a1, a2, a3 = values[-3], values[-2], values[-1]
    den = a3 - 2.0 * a2 + a1
    if den == 0.0:
        return a3
    return a3 - (a3 - a2) ** 2 / den
