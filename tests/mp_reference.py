"""50-digit mpmath references for the tilted cumulant, K1(beta) and m(beta, K).

Nothing here calls bclab. The cumulant comes from its defining closed form;
roots are bracketed by sign changes on a geometric grid and polished by
mpmath's Anderson-Bjorck solver. Inputs are taken as the exact binary values
of the floats passed in.
"""

import mpmath as mp

DPS = 50


def cumulant_mp(beta):
    """(c, c') of the tilted single-spin law at beta, as mpmath functions of t."""
    a = mp.exp(-mp.mpf(beta))

    def c(t):
        return mp.log((1 + 2 * a * mp.cosh(t)) / (1 + 2 * a))

    def c1(t):
        return 2 * a * mp.sinh(t) / (1 + 2 * a * mp.cosh(t))

    return c, c1


def _roots(fn, lo, hi, rising):
    """Roots of fn on [lo, hi] where it changes sign upward (rising) or downward."""
    ts = [lo * (hi / lo) ** (mp.mpf(k) / 400) for k in range(401)]
    vals = [fn(t) for t in ts]
    return [mp.findroot(fn, (ta, tb), solver="anderson")
            for ta, tb, fa, fb in zip(ts, ts[1:], vals, vals[1:])
            if (fa < 0 < fb if rising else fa > 0 > fb)]


def first_order_k_mp(beta: float) -> float:
    """K1 = t/(2 beta c'(t)) at the unique positive root t of t c'(t)/2 - c(t)."""
    with mp.workdps(DPS):
        c, c1 = cumulant_mp(beta)
        (t,) = _roots(lambda t: t * c1(t) / 2 - c(t), mp.mpf("1e-6"), mp.mpf(100), False)
        return float(t / (2 * mp.mpf(beta) * c1(t)))


def magnetization_mp(beta: float, kappa: float) -> float:
    """c'(t) at the largest stable root t of t = 2 beta K c'(t), if its well
    depth t c'(t)/2 - c(t) is <= 0; else 0."""
    with mp.workdps(DPS):
        c, c1 = cumulant_mp(beta)
        two_bk = 2 * mp.mpf(beta) * mp.mpf(kappa)
        roots = _roots(lambda t: t - two_bk * c1(t), mp.mpf("1e-8"), two_bk, True)
        if not roots or roots[-1] * c1(roots[-1]) / 2 - c(roots[-1]) > 0:
            return 0.0
        return float(c1(roots[-1]))
