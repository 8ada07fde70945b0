"""50-digit mpmath references for the tilted cumulant, K1(beta), m(beta, K),
the exact law of the total spin and the first absolute moment of exp(-poly),
an 80-digit Taylor expansion of K1 at the tricritical point, and the
numerator e^beta + 2 - 4 beta K of K(beta)/K - 1 at 1200 bits and in
40-digit decimal.

Nothing here calls bclab. The cumulant comes from its defining closed form;
roots are bracketed by sign changes on a geometric grid and polished by
mpmath's Anderson-Bjorck solver. At large beta, c(t) ~ e^-beta t^2 sits
beside 1 in the closed form, so K1 and m carry beta/2 more digits. Inputs are
taken as the exact binary values of the floats passed in.
"""

import decimal

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


def spinodal_numerator_mp(beta: float, kappa: float) -> float:
    """e^beta + 2 - 4 beta K rounded once to a float, from 1200 bits. These
    resolve e^beta - 1 >= beta beside 3 down to beta = 5e-324, and its
    beta^2/2 wherever that breaks a tie of the dyadic rest."""
    with mp.workprec(1200):
        b = mp.mpf(beta)
        return float(mp.exp(b) + 2 - 4 * b * mp.mpf(kappa))


def spinodal_numerator_decimal(beta: float, kappa: float) -> float:
    """The same numerator in 40-digit decimal. Below beta ~ 1e-30 the 40
    digits no longer hold e^beta - 1 beside 3, so it can round an exact tie
    of 3 - 4 beta K the wrong way."""
    with decimal.localcontext(decimal.Context(prec=40)):
        b = decimal.Decimal(beta)
        return float(b.exp() + 2 - 4 * b * decimal.Decimal(kappa))


def _roots(fn, lo, hi, rising):
    """Roots of fn on [lo, hi] where it changes sign upward (rising) or downward."""
    ts = [lo * (hi / lo) ** (mp.mpf(k) / 400) for k in range(401)]
    vals = [fn(t) for t in ts]
    return [mp.findroot(fn, (ta, tb), solver="anderson")
            for ta, tb, fa, fb in zip(ts, ts[1:], vals, vals[1:])
            if (fa < 0 < fb if rising else fa > 0 > fb)]


def _first_order_k_mp(beta):
    """K1 = t/(2 beta c'(t)) at the unique positive root t of the well depth
    f(t) = t c'(t)/2 - c(t), which lies below 2 beta + 2 log 3, at the working
    precision. The root is taken of f(t)/t^4, which stays simple as t -> 0 at
    beta_c, where f vanishes to fourth order."""
    c, c1 = cumulant_mp(beta)
    (t,) = _roots(lambda t: (t * c1(t) / 2 - c(t)) / t**4, mp.mpf("1e-6"),
                  max(mp.mpf(100), 4 * mp.mpf(beta)), False)
    return t / (2 * beta * c1(t))


def first_order_k_mp(beta: float) -> float:
    """K1(beta) from 50 + beta/2 digits."""
    with mp.workdps(DPS + int(beta / 2)):
        return float(_first_order_k_mp(mp.mpf(beta)))


def k1_taylor_mp():
    """[K1(beta_c), K1'(beta_c), K1''(beta_c), K1'''(beta_c)], 80-digit mpmath.

    K1 is analytic at beta_c = log 4 (the root s = t^2 of f/t^4 is simple
    there), so the derivatives are read off the exact interpolation polynomial
    through K1(beta_c + j/400), j = 1..14, and K1(beta_c) = K(beta_c) =
    3/(2 log 4); K1' and K1'' match K'(beta_c) and ell_c to about 1e-22.
    """
    with mp.workdps(80):
        bc = mp.log(4)
        hs = [mp.mpf(j) / 400 for j in range(15)]
        ks = [3 / (2 * bc)] + [_first_order_k_mp(bc + h) for h in hs[1:]]
        coeffs = mp.lu_solve(mp.matrix([[h**i for i in range(15)] for h in hs]),
                             mp.matrix(ks))
        return [mp.factorial(i) * coeffs[i] for i in range(4)]


def magnetization_mp(beta: float, kappa: float) -> float:
    """c'(t) at the largest stable root t of t = 2 beta K c'(t), if its well
    depth t c'(t)/2 - c(t) is <= 0; else 0. The root lies below 2 beta K, where
    t - 2 beta K c'(t) may be too small to resolve, so the scan runs to 4 beta K."""
    with mp.workdps(DPS + int(beta / 2)):
        c, c1 = cumulant_mp(beta)
        two_bk = 2 * mp.mpf(beta) * mp.mpf(kappa)
        roots = _roots(lambda t: t - two_bk * c1(t), mp.mpf("1e-8"), 2 * two_bk, True)
        if not roots or roots[-1] * c1(roots[-1]) / 2 - c(roots[-1]) > 0:
            return 0.0
        return float(c1(roots[-1]))


def spin_law_mp(n: int, beta: float, kappa: float) -> tuple[list[float], float]:
    """(log p_s for s = 0..n, E|S_n/n|) of the exact law of the total spin.

    The K-free weight of s is c_s = sum over n_plus - n_minus = s of
    multinomial(n; n_plus, n_zero, n_minus) a^(n_plus + n_minus), a = e^-beta.
    For n <= 200 it is summed directly. Beyond, c_s = d_{n-s} with d_j the
    coefficient of z^j in (a + z + a z^2)^n: d_0 = a^n, d_1 = n a^(n-1) and
    a (k + 1) d_{k+1} = (n - k) d_k + a (2n - k + 1) d_{k-1}, whose terms are
    all positive. The law is c_s e^(beta K s^2 / n), normalized.
    """
    with mp.workdps(DPS):
        b = mp.mpf(beta)
        a = mp.exp(-b)
        if n <= 200:
            f = [mp.factorial(k) for k in range(n + 1)]
            c = [mp.fsum(f[n] / (f[m + s] * f[m] * f[n - 2 * m - s]) * a ** (2 * m + s)
                         for m in range((n - s) // 2 + 1)) for s in range(n + 1)]
        else:
            d = [a ** n, n * a ** (n - 1)]
            for k in range(1, n):
                d.append(((n - k) * d[k] + a * (2 * n - k + 1) * d[k - 1]) / (a * (k + 1)))
            c = d[::-1]
        step = b * mp.mpf(kappa) / n
        w = [c[s] * mp.exp(step * s * s) for s in range(n + 1)]
        z = w[0] + 2 * mp.fsum(w[1:])
        mean = 2 * mp.fsum(s * w[s] for s in range(1, n + 1)) / (n * z)
        return [float(mp.log(x / z)) for x in w], float(mean)


def log_spin_weight_mp(n: int, s: int, beta: float, kappa: float):
    """log of the unnormalized weight c_s e^(beta K s^2 / n) of total spin s, as
    an mpmath number, for n far beyond the reach of spin_law_mp.

    The terms t_m = multinomial(n; m + s, n - 2m - s, m) a^(2m + s) of c_s are
    log-concave in m, so the sum starts at the largest one and walks outward
    until the terms fall below 10^-(DPS + 5) of it.
    """
    s = abs(s)
    top = (n - s) // 2
    with mp.workdps(DPS + 10):
        b = mp.mpf(beta)
        a2 = mp.exp(-2 * b)

        def ratio(m):  # t_{m+1} / t_m, decreasing in m and 0 at m = top
            return (n - 2 * m - s) * (n - 2 * m - s - 1) * a2 / ((m + 1) * (m + s + 1))

        lo, hi = 0, top  # the largest term sits at the first m with ratio(m) < 1
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if ratio(mid) >= 1 else (lo, mid)
        tiny = mp.mpf(10) ** -(DPS + 5)
        terms = [mp.mpf(1)]
        t, m = mp.mpf(1), lo
        while m < top and t > tiny:
            t, m = t * ratio(m), m + 1
            terms.append(t)
        t, m = mp.mpf(1), lo
        while m > 0 and t > tiny:
            t, m = t / ratio(m - 1), m - 1
            terms.append(t)
        log_t = (mp.loggamma(n + 1) - mp.loggamma(lo + s + 1) - mp.loggamma(lo + 1)
                 - mp.loggamma(n - 2 * lo - s + 1) - (2 * lo + s) * b)
        return log_t + mp.log(mp.fsum(terms)) + b * mp.mpf(kappa) * s * s / n


def exp_poly_abs_moment_mp(c2: float, c4: float = 0.0, c6: float = 0.0) -> float:
    """E|X| for the density proportional to exp(-g), g = c2 x^2 + c4 x^4 + c6 x^6.

    The weight is exp(g_min - g), with g_min the least of 0 and g at the
    positive roots y = x^2 of g'(x)/x = 2 c2 + 4 c4 y + 6 c6 y^2. Both
    integrals run over [0, inf), split at those roots.
    """
    with mp.workdps(DPS):
        c2, c4, c6 = mp.mpf(c2), mp.mpf(c4), mp.mpf(c6)

        def g(x):
            y = x * x
            return (c2 + (c4 + c6 * y) * y) * y

        if c6:
            root = mp.sqrt(c4 * c4 - 3 * c6 * c2)
            ys = [(-c4 - root) / (3 * c6), (-c4 + root) / (3 * c6)]
        else:
            ys = [-c2 / (2 * c4)] if c4 else []
        turns = sorted(mp.sqrt(y) for y in ys if mp.im(y) == 0 and y > 0)
        g_min = min([mp.mpf(0)] + [g(x) for x in turns])
        pts = [mp.mpf(0)] + turns + [mp.inf]
        num = mp.quad(lambda x: x * mp.exp(g_min - g(x)), pts)
        den = mp.quad(lambda x: mp.exp(g_min - g(x)), pts)
        return float(num / den)
