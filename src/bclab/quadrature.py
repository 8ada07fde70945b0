"""Quadrature helpers for expectations against exp(-polynomial) weights and
Gaussian-smoothed lattice laws."""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import integrate

# Relative tolerance of every improper integral, and the exponent margin at
# which a weight e^(floor - fn) is cut off: beyond the cutoff the integrand
# is below e^-60 of its peak.
REL_TOL = 1e-10
TAIL_CUT = 60.0


class QuadratureError(RuntimeError):
    """Raised when an integral cannot be resolved to the requested tolerance."""


def tail_cutoff(fn, floor: float, last_turn: float) -> float:
    """Smallest power of two X >= max(1, last_turn) with fn(X) >= floor + TAIL_CUT.

    fn must be even and coercive with minimum floor and no stationary point
    beyond last_turn, so it increases past X and the weight e^(floor - fn)
    stays below e^-TAIL_CUT there. The doubling ends for any fn: at worst X
    overflows to inf, where fn(X) is inf or nan and the test fails.
    """
    x = 1.0
    while x < last_turn or fn(x) < floor + TAIL_CUT:
        x *= 2.0
    return x


def _quad(f, lo: float, hi: float, points):
    pts = sorted(p for p in points if lo < p < hi) or None
    val, err = integrate.quad(f, lo, hi, epsabs=1e-14, epsrel=REL_TOL,
                              limit=400, points=pts)
    if err > max(1e-12, 10 * REL_TOL * abs(val)):
        raise QuadratureError(
            f"integral did not converge: value {val:.6g}, achieved abs error {err:.3g}")
    return val


def weighted_ratio(f, log_weight, cutoff: float, points=()) -> float:
    """(integral of f * e^log_weight) / (integral of e^log_weight) on [-X, X].

    log_weight must be even with maximum 0 (pre-normalized); points flags
    integrable kinks of f or interior peaks of the weight.
    """
    num = _quad(lambda x: f(x) * math.exp(log_weight(x)), -cutoff, cutoff, points)
    den = _quad(lambda x: math.exp(log_weight(x)), -cutoff, cutoff, points)
    return num / den


_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(64)
_GL_NODES, _GL_WEIGHTS = leggauss(24)


def gaussian_mixture_expectation(f, means, probs, sigma: float, kinks=()) -> float:
    """E[f(X)] for the mixture sum_s probs[s] * N(means[s], sigma^2).

    Smooth f uses 64-node Gauss-Hermite per mixture component. When f has
    kinks (e.g. min(|x|, j)), the component integral is instead split at each
    kink inside a +-12 sigma window and evaluated with panelled Gauss-Legendre
    (panel width <= 3 sigma keeps the Gaussian factor spectrally resolved).
    """
    means = np.asarray(means, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    if not kinks:
        pts = means[:, None] + math.sqrt(2.0) * sigma * _GH_NODES[None, :]
        vals = f(pts) @ _GH_WEIGHTS / math.sqrt(math.pi)
        return float(probs @ vals)

    kinks = sorted(kinks)
    half_width = 12.0 * sigma
    norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    total = 0.0
    for mu, pr in zip(means, probs):
        cuts = [mu - half_width]
        cuts += [k for k in kinks if mu - half_width < k < mu + half_width]
        cuts.append(mu + half_width)
        acc = 0.0
        for a, b in zip(cuts, cuts[1:]):
            n_panels = max(1, math.ceil((b - a) / (3.0 * sigma)))
            edges = np.linspace(a, b, n_panels + 1)
            los, his = edges[:-1], edges[1:]
            mid = 0.5 * (his + los)[:, None]
            half = 0.5 * (his - los)[:, None]
            x = mid + half * _GL_NODES[None, :]
            w = half * _GL_WEIGHTS[None, :]
            dens = np.exp(-0.5 * ((x - mu) / sigma) ** 2) * norm
            acc += float(np.sum(w * f(x) * dens))
        total += pr * acc
    return total


def aitken_limit(values) -> float:
    """Aitken delta-squared extrapolation from the last three entries.

    Falls back to the final value when the second difference vanishes.
    """
    if len(values) < 3:
        raise ValueError("need at least three values to extrapolate")
    a1, a2, a3 = values[-3], values[-2], values[-1]
    den = a3 - 2.0 * a2 + a1
    if den == 0.0:
        return a3
    return a3 - (a3 - a2) ** 2 / den
