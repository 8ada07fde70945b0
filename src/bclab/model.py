"""Closed-form building blocks of the mean-field three-state spin model.

Spins take values in {-1, 0, +1}. The tilted single-site measure puts weight
1 on spin 0 and e^{-beta} on each of +-1, so its cumulant generating function
is

    c_beta(t) = log( (1 + e^{-beta} (e^t + e^{-t})) / (1 + 2 e^{-beta}) ),

and the free-energy functional whose global minimizers are the equilibrium
magnetization values is

    G_{beta,K}(x) = beta K x^2 - c_beta(2 beta K x).

Everything here is a pure function of its arguments; ``Tilt``, the per-beta
state of the equilibrium solvers, alone forms or reads a per-beta quantity:
the exact rho_K = K(beta)/K - 1, the tilt functions in s = t^2 and their
Newton starts. Elsewhere the spin/tilt argument may be a scalar or a numpy
array. No function overflows for any finite argument.

One dispatcher, ``_elementwise``, serves the four public functions: a value
the real rule takes goes straight to a ``math`` kernel, without numpy, and
returns a float; an array or numpy number of integer or float dtype goes to the
same kernel element by element, through numpy, so an array holds exactly the
values of its elements taken one at a time and every precision device lives
in one place. ``Tilt`` also sums its series in floats. The hot
callers pass single floats: each equilibrium solve calls ``cumulant_deriv``
and ``free_energy`` once, at under 1 us a call (56 times each for a 100-point
phase diagram), and its Newton steps call the scalar kernels through ``Tilt``,
at most one kernel call a step. Arrays come from the scaled free-energy tables
of ``sequences``, a few thousand points at a time, from the 40001-point grid
of ``harness.weak_limit_distance`` and from tests.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from itertools import repeat

_CUMULANT_ORDERS = (1, 2)
_LOG1P_MAX_T = 700.0   # sinh^2(t/2) overflows beyond
# Below s = t^2 = 1 the series in s is summed; its terms shrink at least like
# s/R^2 <= 0.23, R >= 2 pi/3 the nearest complex zero of e^c, so 26 terms
# keep drho/ds, whose weights grow like j^2, to 1e-14 up to s = 1.
_SERIES_MAX_S = 1.0
_SERIES_TERMS = 26
_LOG4_LO = 4.638093627692599e-17   # log 4 - float(log 4)
_EXP_BITS = 128                                    # fractional bits of e^r
_LN2 = 0xB17217F7D1CF79ABC9E3B39803F2F6AF41        # log 2 * 2^136, rounded
# The forms use e^{-2 beta}, which leaves the normal floats beyond beta = 354.2;
# magnetization and K1 match mpmath up to here (tests/test_phase.py).
BETA_MAX = 350.0


def _is_real(value) -> bool:
    """The real rule: a finite Python int or float, numpy's float64 (a float) included, no
    bool; strings, None, arrays, numpy integers and float32 fail. Callers add bounds."""
    if isinstance(value, float):
        return math.isfinite(value)
    return (not isinstance(value, bool) and isinstance(value, int)
            and abs(value) <= sys.float_info.max)


def check_beta(op: str, beta: float) -> None:
    """Raise a ValueError naming op unless beta is real and 0 < beta <= BETA_MAX."""
    if type(beta) is not float and not _is_real(beta) or not 0.0 < beta <= BETA_MAX:
        raise ValueError(f"{op}: beta must lie in (0, {BETA_MAX}], got {beta!r}")


def check_count(op: str, value: int, name: str = "n", low: int | None = 1) -> int:
    """The integer rule: value as a Python int in [low, float max] if operator.index takes
    it (Python or numpy integers) and it is no bool, else a ValueError naming op and name."""
    try:
        if isinstance(value, bool):
            raise TypeError
        index = operator.index(value)
    except TypeError:
        raise ValueError(f"{op}: {name} must be an int, got {value!r}") from None
    if low is not None and index < low:
        raise ValueError(f"{op}: {name} must be >= {low}, got {index!r}")
    if index > sys.float_info.max:   # exact; the text of such a value can pass 4300 digits
        raise ValueError(f"{op}: {name} must be at most the largest float, "
                         f"got 10^{math.log10(index):.6g}")
    return index


@dataclass(frozen=True)
class ModelParams:
    """A point (beta, kappa) in the positive quadrant of the phase plane.

    beta is the inverse temperature, at most BETA_MAX = 350; kappa the
    interaction strength.
    """

    beta: float
    kappa: float

    def __post_init__(self):
        check_beta("ModelParams", self.beta)
        if not (_is_real(self.kappa) and self.kappa > 0):
            raise ValueError(f"ModelParams: kappa must be finite and > 0, got {self.kappa!r}")


def _elementwise(op: str, name: str, kernel, first: float, t, arg):
    """kernel(first, v, arg) at t itself, without numpy, if t passes the real
    rule, else for every element v of t, in the shape of t (a numpy scalar gives
    a float); a ValueError naming op and name unless t is real or of integer or
    float dtype (no bool, str or object), a list or tuple holds only ints and
    floats, and all of it is finite, so no kernel sees a non-finite t. Every
    kernel takes these three positional arguments, so a scalar is one plain
    call, and map feeds the kernel without an argument tuple per element, a
    third faster."""
    if type(t) is float and math.isfinite(t) or _is_real(t):
        return kernel(first, float(t), arg)
    import numpy as np
    arr = np.asarray(t)
    # numpy upcasts a list's bools to int or float; its elements are judged one by one
    leaves = np.asarray(t, dtype=object).flat if isinstance(t, (list, tuple)) else ()
    if arr.dtype.kind not in "iuf" or any(
            isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating))
            for v in leaves):
        raise ValueError(f"{op}: {name} must be a finite int or float or an array of them, "
                         f"got {type(t).__name__} (dtype {arr.dtype})")
    arr = arr.astype(float, copy=False)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{op}: {name} must be finite")
    values = arr.ravel().tolist()
    out = np.fromiter(map(kernel, repeat(first), values, repeat(arg)), float, len(values))
    return float(out[0]) if np.isscalar(t) else out.reshape(arr.shape)


def cumulant(beta: float, t):
    """Cumulant generating function c_beta(t) of the tilted single-spin law.

    Even in t, c_beta(0) = 0, and stable for |t| well beyond the overflow
    threshold of exp; log1p(2 p sinh^2(t/2)) keeps its precision as t -> 0.
    """
    check_beta("cumulant", beta)
    return _elementwise("cumulant", "t", _cumulant_scalar, math.exp(-beta), t, None)


def _cumulant_scalar(a: float, t: float, _=None) -> float:
    m = abs(t)
    if m > _LOG1P_MAX_T:   # there e^{-2|t|} is negligible against 1
        return m + math.log(a + math.exp(-m)) - math.log1p(2.0 * a)
    s = math.sinh(0.5 * m)
    return math.log1p(4.0 * a / (1.0 + 2.0 * a) * s * s)


def cumulant_deriv(beta: float, t, order: int):
    """Closed-form d^order/dt^order of c_beta at t, for order in {1, 2}.

    Derived analytically from c_beta = log D - const with D = 1 + E,
    E = e^{-beta}(e^t + e^{-t}):

        c'   = E'/D
        c''  = (E + 4 e^{-2 beta})/D^2    (E'' = E and E D - E'^2 = E + 4 e^{-2 beta})

    Finite differences are test oracles only; Newton steps elsewhere rely on
    these forms being exact.
    """
    check_beta("cumulant_deriv", beta)
    # an int passes first: every equilibrium solve makes this call
    if not ((type(order) is int or _is_real(order)) and order in _CUMULANT_ORDERS):
        raise ValueError(f"cumulant_deriv: order must be in {_CUMULANT_ORDERS}, got {order!r}")
    return _elementwise("cumulant_deriv", "t", _cumulant_deriv_scalar, math.exp(-beta), t,
                        _CUMULANT_ORDERS.index(order))


def _cumulant_deriv_scalar(a: float, t: float, which: int) -> float:
    return _cumulant_derivs(a, t)[which]


def _cumulant_derivs(a: float, t: float) -> tuple[float, float]:
    """(c', c'') at one finite float t from a = e^{-beta}, the Newton pair:
    the forms of cumulant_deriv, written with the shifted parts dhat = e^{-m}
    D, ehat = e^{-m} E and ephat = e^{-m} E', m = |t|. All three lie in (0, 1
    + 2a], so their ratios never overflow; ephat = sign(t) a (1 - e^{-2m})
    keeps its relative precision as t -> 0. ehat = a (1 + e^{-2m}) is the
    a (e^{t-m} + e^{-t-m}) of the definition to the bit: of the two exponents
    one is exactly 0 and the other exactly -2m."""
    m = abs(t)
    em = math.exp(-m)
    ehat = a * (1.0 + math.exp(-2.0 * m))
    dhat = em + ehat
    ephat = math.copysign(-a * math.expm1(-2.0 * m), t)
    # E D - E'^2 = E + 4 e^{-2 beta} exactly, which keeps c'' positive for
    # large |t| where E/D - c'^2 would cancel to zero. Numerators are divided
    # by dhat before they meet the factor e^{-m}: a e^{-m} and a^2 e^{-m}
    # underflow once beta + |t| or 2 beta + |t| passes 708.
    return ephat / dhat, (ehat + 4.0 * a * a * em) / dhat * (em / dhat)


def _gamma_polynomials() -> tuple[tuple[float, ...], ...]:
    """Row j - 1 holds gamma_j of c_beta(t) = sum_j gamma_j t^(2j), a polynomial in p, from p^j
    down to p^1 for Horner: with c = log(1 + u), u = sum_k p t^(2k)/(2k)!, (1 + u) c' = u'."""
    w = [1.0 / math.factorial(2 * k) for k in range(_SERIES_TERMS + 1)]
    rows = [[0.0] * (_SERIES_TERMS + 2) for _ in range(_SERIES_TERMS + 1)]
    for n in range(1, _SERIES_TERMS + 1):
        rows[n][1] = w[n]
        for k in range(1, n):
            for i in range(1, k + 1):
                rows[n][i + 1] -= k * w[n - k] / n * rows[k][i]
    return tuple(tuple(rows[j][j:0:-1]) for j in range(1, _SERIES_TERMS + 1))


_GAMMA_POLYNOMIALS = _gamma_polynomials()


def _series_coefficients(tilt: Tilt) -> list[float]:
    """[gamma_1, ..., gamma_26] at tilt.beta; gamma_2 = p (1 - 3p)/24 keeps its
    relative precision at beta_c through 1 - 3p = (1 - 4 e^{-beta})/(1 + 2 e^{-beta})."""
    a, p = tilt._a, tilt._c2_origin
    g = []
    for row in _GAMMA_POLYNOMIALS:
        v = 0.0
        for c in row:
            v = v * p + c
        g.append(v * p)
    g[1] = p * tilt._d / (24.0 * (1.0 + 2.0 * a))
    return g


def _horner(weights, s: float) -> tuple[float, float]:
    """(P(s), P'(s)) for the coefficients of P, highest power first."""
    v = dv = 0.0
    for w in weights:
        dv = dv * s + v
        v = v * s + w
    return v, dv


class Tilt:
    """The per-beta state of the equilibrium solvers of ``minimize`` and
    ``phase``, which share one Tilt per beta and ask it every per-beta answer.
    Once per beta it checks beta, forms e^{-beta}, c''(0) and 1 - 4 e^{-beta}
    and sums e^beta exactly (``spinodal_excess``), and it builds the gamma
    series of the K-free tilt functions at the first s < 1. ``excess_series``
    is (w2, w3), the secant excess being rho = w2 s + w3 s^2 + O(s^3): w2 = 2
    gamma_2/gamma_1, negative exactly below beta_c = log 4, and w3 = 3
    gamma_3/gamma_1. ``depth_start``, the K1 descent's start, is the series
    root -gamma_2/(2 gamma_3) of f/s^2 = gamma_2 + 2 gamma_3 s + ..., or 0.0
    where gamma_3 >= 0. rho and f rise in s below ``s_rise`` = t_i^2 (0.0 up
    to beta_c), as c' is convex up to t_i, cosh t_i = 1 + x = (1 - 8 e^{-2
    beta}) e^beta/2; t_i = log1p(x + sqrt(x (x + 2))) keeps the relative
    precision of x near beta_c, where acosh(1 + x) loses that of 1 + x."""

    def __init__(self, beta: float):
        check_beta("Tilt", beta)
        self.beta = beta = float(beta)
        self._a = a = math.exp(-beta)
        self._c2_origin = p = 2.0 * a / (1.0 + 2.0 * a)   # c''(0)
        self._d = d = -math.expm1(math.log(4.0) - beta + _LOG4_LO)   # 1 - 4 e^{-beta}
        self.excess_series = w2, w3 = d / (6.0 + 12.0 * a), (1.0 + p * (30.0 * p - 15.0)) / 120.0
        self.depth_start = -0.75 * w2 / w3 if w3 < 0.0 else 0.0
        x = d * (1.0 + 2.0 * a) / (2.0 * a)
        self.s_rise = math.log1p(x + math.sqrt(x * (x + 2.0))) ** 2 if d > 0.0 else 0.0
        self._weights = None
        bn, bd = beta.as_integer_ratio()
        k = round(beta / math.log(2.0))
        r = ((bn << _EXP_BITS + 8) // bd - k * _LN2) >> 8
        term = exp_r = 1 << _EXP_BITS
        n = 0
        while term:
            n += 1
            term = (term * r >> _EXP_BITS) // n
            exp_r += term
        self._curve = bn, bd, 2 * ((exp_r << k) + (2 << _EXP_BITS)) + 1

    def spinodal_excess(self, kappa: float) -> float:
        """rho_K = K(beta)/K - 1 = (e^beta + 2 - 4 beta K)/(4 beta K), its
        numerator rounded once from exact integers: near the second-order
        curve m(beta, K) is as sensitive to it as to K, and the numerator
        cancels to a few ulps of e^beta, which a float e^beta is itself up to
        half an ulp off; 4 beta K takes 106 bits. So beta = bn/bd and K are
        read as exact dyadic rationals, and e^beta = 2^k e^r, k = round(beta/log
        2), |r| <= 0.35, is summed once per beta as the Taylor series of e^r in
        integers at 2^-128 (log 2 at 2^-136), into _curve = (bn, bd, top), top
        = 2^129 (e^beta + 2) + 1; a call forms the K part alone. The numerator
        is then within 2^-121 e^beta of its exact value. Below beta = 0.35 (k =
        0) every truncation is downward, and top's + 1 adds half a unit before
        the rounding: the part of e^beta - 1 lost below 2^-128 is positive, so
        an exact tie of the rest rounds up, as the exact numerator does.
        K(beta)/K below the floats gives -1.0, above them inf."""
        den = 4.0 * self.beta * kappa
        if den == math.inf:
            return -1.0
        if den == 0.0:
            return math.inf
        bn, bd, top = self._curve
        kn, kd = kappa.as_integer_ratio()
        # 2^129 bd kd times the numerator plus half a unit
        d = bd * kd
        num = top * d - (bn * kn << _EXP_BITS + 3)
        return num / (d << _EXP_BITS + 1) / den

    def _series(self) -> tuple[list[float], list[float]]:
        """Weights of s^(j-2), j = 26 down to 2: f/s^2 and rho/s."""
        if self._weights is None:
            g = _series_coefficients(self)
            self._weights = ([(j - 1) * g[j - 1] for j in range(_SERIES_TERMS, 1, -1)],
                             [j * (g[j - 1] / g[0]) for j in range(_SERIES_TERMS, 1, -1)])
        return self._weights

    def depth(self, s: float) -> tuple[float, float]:
        """(f, df/ds) at s = t^2 from at most one kernel call, for a Newton
        step in s: the depth f = t c'/2 - c of G at its stationary point x =
        c'(t), so G_{beta,K}(c'(t)) = f whenever t = 2 beta K c'(t), whatever K
        is. Below s = 1 both sum the series f = s^2 D(s), D = sum_{j>=2} (j - 1)
        gamma_j s^(j-2), and df/ds = s (2 D + s D'): there the closed form
        df/ds = (t c'' - c')/(4 t) cancels to noise near beta_c, where t c'' and
        c' agree to beyond the last digit."""
        if _SERIES_MAX_S <= s < math.inf:
            t = math.sqrt(s)
            c1, c2 = _cumulant_derivs(self._a, t)
            return 0.5 * t * c1 - _cumulant_scalar(self._a, t), (t * c2 - c1) / (4.0 * t)
        if not 0.0 <= s < _SERIES_MAX_S:
            raise ValueError(f"Tilt.depth: s must be finite and >= 0, got {s}")
        v, dv = _horner(self._series()[0], s)
        return s * s * v, s * (2.0 * v + s * dv)

    def secant_excess(self, s: float) -> tuple[float, float]:
        """(rho, drho/ds) at s = t^2 from at most one kernel call, for a Newton
        step in s: t is stationary for G_{beta,K} exactly when the secant excess
        rho = c'(t)/(c''(0) t) - 1 equals K(beta)/K - 1. Below s = 1 both sum
        the series rho = s R(s), R = sum_{j>=2} (j gamma_j/gamma_1) s^(j-2), so
        nothing cancels; above, drho/ds = (c''/c''(0) - 1 - rho)/(2 s)."""
        if _SERIES_MAX_S <= s < math.inf:
            t = math.sqrt(s)
            c1, c2 = _cumulant_derivs(self._a, t)
            rho = c1 / (self._c2_origin * t) - 1.0
            return rho, (c2 / self._c2_origin - 1.0 - rho) / (2.0 * s)
        if not 0.0 <= s < _SERIES_MAX_S:
            raise ValueError(f"Tilt.secant_excess: s must be finite and >= 0, got {s}")
        v, dv = _horner(self._series()[1], s)
        return s * v, v + s * dv


def free_energy(params: ModelParams, x):
    """Free-energy functional G_{beta,K}(x) = beta K x^2 - c_beta(2 beta K x).

    Where 2 beta K x overflows, c = |2 beta K x| - beta - log(1 + 2 e^-beta)
    gives G = beta K |x| (|x| - 2) + beta + log(1 + 2 e^-beta): G at the
    ordered limit x = 1 is about -beta K, a float wherever beta K is one, and
    G(0) = 0 and G(+-2) = beta + log(1 + 2 e^-beta) even where beta K is not."""
    return _elementwise("free_energy", "x", _free_energy_scalar, params.beta, x,
                        params.beta * params.kappa)


def _free_energy_scalar(beta: float, x: float, bk: float) -> float:
    if x == 0.0:   # 2 beta K x is nan where beta K overflows
        return 0.0
    t = 2.0 * (bk * x)
    if math.isinf(t):   # bk |x| (|x| - 2) is 0 at |x| = 2, not inf * 0
        a = abs(x)
        return (bk * a * (a - 2.0) if a != 2.0 else 0.0) + beta + math.log1p(2.0 * math.exp(-beta))
    return bk * x * x - _cumulant_scalar(math.exp(-beta), t)


def free_energy_deriv(params: ModelParams, x, order: int):
    """First or second x-derivative of the free-energy functional.

    order 1: 2 beta K (x - c'(2 beta K x)); order 2: 2 beta K - (2 beta K)^2 c'',
    formed as 2 beta K (2 beta K c''), which overflows to -inf, not to an
    OverflowError, where that product leaves the floats. Where 2 beta K x
    overflows c' = sign x and c'' = 0, as in free_energy, and G''(0) = -inf.
    """
    if not (_is_real(order) and order in _CUMULANT_ORDERS):
        raise ValueError(f"free_energy_deriv: order must be 1 or 2, got {order!r}")
    return _elementwise("free_energy_deriv", "x", _free_energy_deriv_scalar,
                        math.exp(-params.beta), x, (2.0 * params.beta * params.kappa, order))


def _free_energy_deriv_scalar(a: float, x: float, two_bk_order: tuple[float, int]) -> float:
    two_bk, order = two_bk_order
    t = two_bk * x
    if not math.isfinite(t):   # c' = sign x, c'' = 0; t is nan at x = 0 where 2 beta K is inf
        if order == 2:
            return two_bk if x else -math.inf
        return two_bk * (x - math.copysign(1.0, x)) if x and abs(x) != 1.0 else 0.0
    c1, c2 = _cumulant_derivs(a, t)
    return two_bk * (x - c1) if order == 1 else two_bk - two_bk * (two_bk * c2)
