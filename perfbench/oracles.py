"""Reference values that share no code with bclab.

Every function here recomputes a quantity from its defining formula: the
first-order curve from the stationary-well equation in mpmath, the spin law
from the coefficient recurrence of (1 + a(z + 1/z))^n in mpmath, limit
constants by mpmath quadrature, and the magnetization from the tilt
parametrization of the stationary points. Results depend only on the inputs, so
``run.py`` caches them on disk per workload and seed.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

DPS = 40
BETA_C = math.log(4.0)


def k_second(beta: float) -> float:
    """Continuous-bifurcation curve K(beta) = (e^beta + 2)/(4 beta), in floats."""
    return (math.exp(beta) + 2.0) / (4.0 * beta)


def k_second_deriv(beta: float, order: int) -> float:
    """order-th beta-derivative of K(beta), by mpmath differentiation."""
    with mp.workdps(DPS):
        return float(mp.diff(lambda b: (mp.exp(b) + 2) / (4 * b), mp.mpf(beta), order))


def c4_coefficient(beta: float) -> float:
    return (math.exp(beta) + 2.0) ** 2 * (4.0 - math.exp(beta)) / 192.0


def seq1_params(beta: float, b: int, k: float, alpha: float, n: int) -> tuple[float, float]:
    """(beta_n, K_n) of sequence 1: beta + b/n^alpha, K(beta) + k/n^alpha."""
    na = float(n) ** alpha
    return beta + b / na, k_second(beta) + k / na


def _cumulant_mp(beta):
    a = mp.exp(-beta)

    def c(t):
        return mp.log((1 + a * (mp.exp(t) + mp.exp(-t))) / (1 + 2 * a))

    def c1(t):
        return a * (mp.exp(t) - mp.exp(-t)) / (1 + a * (mp.exp(t) + mp.exp(-t)))

    return c, c1


def first_order_k(beta: float) -> float:
    """K1(beta) for beta > beta_c from the stationary-well equation.

    With t the tilt at the positive well, the well depth is
    f(t) = t c'(t)/2 - c(t), which does not depend on K. K1 is
    t/(2 beta c'(t)) at the positive root of f. The root is bracketed by a
    geometric scan over t in [1e-6, 1e4] and must be unique.
    """
    if not beta > BETA_C:
        raise ValueError(f"beta must exceed beta_c, got {beta}")
    with mp.workdps(DPS):
        b = mp.mpf(beta)
        c, c1 = _cumulant_mp(b)

        def f(t):
            return t * c1(t) / 2 - c(t)

        ts = [mp.mpf(10) ** (mp.mpf(k) / 8) for k in range(-48, 33)]
        vals = [f(t) for t in ts]
        brackets = [(lo, hi) for lo, hi, flo, fhi in zip(ts, ts[1:], vals, vals[1:])
                    if flo * fhi < 0]
        if len(brackets) != 1:
            raise ArithmeticError(f"K1 oracle found {len(brackets)} roots at beta={beta}")
        t = mp.findroot(f, brackets[0], solver="anderson")
        return float(t / (2 * b * c1(t)))


def magnetization(beta: float, kappa: float) -> float:
    """m(beta, K): the deepest stationary well of G on (0, 1), or 0.

    Stationary points are x = c'(t) at the roots t > 0 of t = 2 beta K c'(t);
    the depth there is t c'(t)/2 - c(t). Roots are bracketed on a float grid
    and polished in mpmath. Inputs must stay away from both transition curves,
    where the depth comparison is a tie.
    """
    a = math.exp(-beta)
    two_bk = 2.0 * beta * kappa
    ts = np.concatenate([np.geomspace(1e-8, 1e-2, 400), np.linspace(1e-2, two_bk + 1.0, 4000)])
    with np.errstate(over="ignore"):
        c1 = 2 * a * np.sinh(ts) / (1 + 2 * a * np.cosh(ts))
    g = ts - two_bk * c1
    idx = np.nonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0)[0]
    best_depth, best_x = mp.mpf(0), 0.0
    with mp.workdps(30):
        c, c1m = _cumulant_mp(mp.mpf(beta))
        bk2 = mp.mpf(two_bk)
        for i in idx:
            t = mp.findroot(lambda s: s - bk2 * c1m(s), (mp.mpf(ts[i]), mp.mpf(ts[i + 1])),
                            solver="anderson")
            x = c1m(t)
            depth = t * x / 2 - c(t)
            if depth < best_depth:
                best_depth, best_x = depth, float(x)
    return best_x


def free_energy_grad(beta: float, kappa: float, x: float) -> float:
    """G'(x) = 2 beta K (x - c'(2 beta K x)) evaluated in mpmath at the float x."""
    with mp.workdps(30):
        _, c1 = _cumulant_mp(mp.mpf(beta))
        bk2 = 2 * mp.mpf(beta) * mp.mpf(kappa)
        return float(abs(bk2 * (mp.mpf(x) - c1(bk2 * mp.mpf(x)))))


class SpinLaw:
    """Exact law of S_n at (beta, K), held as mpmath probabilities p_s, s = 0..n.

    The K-free weight of total spin s is the coefficient c_s of z^s in
    (1 + a(z + 1/z))^n with a = e^-beta. From P f' = n P' f,
    a(n + k + 1) c_{k+1} = a(n - k + 1) c_{k-1} - k c_k, run from the edge
    (c_n = a^n, c_{n-1} = n a^(n-1)) toward the centre, where every term is
    positive. The law is c_s e^{beta K s^2 / n}, normalized.
    """

    def __init__(self, n: int, beta: float, kappa: float):
        self.n = n
        with mp.workdps(DPS):
            a = mp.exp(-mp.mpf(beta))
            c = [mp.mpf(0)] * (n + 1)
            c[n] = a ** n
            if n >= 1:
                c[n - 1] = n * a ** (n - 1)
            for k in range(n - 1, 0, -1):
                c[k - 1] = (a * (n + k + 1) * c[k + 1] + k * c[k]) / (a * (n - k + 1))
            step = mp.mpf(beta) * mp.mpf(kappa) / n
            ratio, grow, sq = mp.mpf(1), mp.exp(2 * step), mp.exp(step)
            w = []
            for s in range(n + 1):
                w.append(c[s] * ratio)        # ratio = e^{step s^2}
                ratio *= sq                   # e^{step (s+1)^2} = e^{step s^2} e^{step (2s+1)}
                sq *= grow
            z = w[0] + 2 * mp.fsum(w[1:])
            self.p = [x / z for x in w]

    def abs_mean(self) -> float:
        """E|S_n/n|."""
        with mp.workdps(DPS):
            return float(2 * mp.fsum(s * self.p[s] for s in range(1, self.n + 1)) / self.n)

    def log_tail(self, threshold: float) -> float:
        """log P{|S_n| >= threshold}; -inf for an empty tail."""
        start = max(0, math.ceil(threshold))
        if start == 0:
            return 0.0
        if start > self.n:
            return -math.inf
        with mp.workdps(DPS):
            return float(mp.log(2 * mp.fsum(self.p[start:])))

    def log_probs(self) -> list[float]:
        """log p_s for s = 0..n (the law is even in s)."""
        with mp.workdps(DPS):
            return [float(mp.log(x)) for x in self.p]

    def probs(self) -> np.ndarray:
        return np.array([float(x) for x in self.p])


def limit_constant(c2: float, c4: float, c6: float) -> float:
    """First absolute moment of the density proportional to exp(-(c2 x^2 + c4 x^4 + c6 x^6))."""
    with mp.workdps(30):
        def poly(x):
            return c2 * x ** 2 + c4 * x ** 4 + c6 * x ** 6
        y = mp.mpf(0)
        if c2 < 0 or c4 < 0:  # interior well: split the range at its bottom
            roots = mp.polyroots([3 * c6, 2 * c4, c2]) if c6 else [-mp.mpf(c2) / (2 * c4)]
            ys = [mp.re(r) for r in roots if abs(mp.im(r)) < 1e-20 and mp.re(r) > 0]
            y = max(ys) if ys else y
        pts = [0, mp.sqrt(y), mp.inf] if y > 0 else [0, mp.inf]
        num = mp.quad(lambda x: x * mp.exp(-poly(x)), pts)
        den = mp.quad(lambda x: mp.exp(-poly(x)), pts)
        return float(num / den)

