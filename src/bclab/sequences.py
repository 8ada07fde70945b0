"""The six parameter sequences (beta_n, K_n) approaching criticality, their
scaling polynomials, exponents, and limit constants.

Each sequence drives (beta_n, K_n) into the phase-coexistence region toward a
second-order point (kinds 1, 2) or the tricritical point (kinds 3-6) at speed
n^-alpha. Along a valid sequence the scaled free energy converges,

    n^(alpha/alpha0) * G_{beta_n,K_n}(x / n^(theta alpha))  ->  g(x),

to an even coercive polynomial g of degree 4 or 6 whose positive minimizer
xbar controls the magnetization asymptotics.

All six follow one recipe. beta_n approaches the anchor beta0 along direction
h, and K_n is the Taylor polynomial of the second-order curve K along that
approach, perturbed at order p; the quadratic coefficient of g is that
perturbation:

    beta_n = beta0 + h / n^alpha
    K_n    = sum_{j<p} K^(j)(beta0) h^j / (j! n^(j alpha)) + ell s / (p! n^(p alpha))
    d      = K^(p)(beta0) h^p - ell s
    g(x)   = beta0 d / p! x^2 + c4 x^4 + c6 x^6

and seq4 adds ell_tilde / (6 n^(3 alpha)) to K_n. Per kind:

    kind   beta0    h    p   ell   s        c4         c6     alpha0     theta     valid when
    seq1   beta     b    1   k     1        c4(beta)   0      1/2        1/2       d < 0, k != 0
    seq2   beta     b    p   ell   b^p      c4(beta)   0      1/(2p)     p/2       d < 0
    seq3   beta_c   b    1   k     1        0          9/40   2/3        1/4       d < 0, k != 0
    seq4   beta_c   1    2   ell   1        -3/4       9/40   1/3        1/2       case rule
    seq5   beta_c   -1   2   ell   1        3/4        9/40   1/3        1/2       d < 0
    seq6   beta_c   -1   p   ell   (-1)^p   3/4        0      1/(2p-1)   (p-1)/2   d < 0

with c4(beta) = (e^beta + 2)^2 (4 - e^beta) / 192. d < 0 puts K_n above the
curve K at order p, in phase coexistence. seq4's case a is d < 0; cases b-d
sit on or below the curve at order 2 and follow their own rules (validate).
The exponents balance the quadratic term against the first higher term that
survives: c4(beta0) x^4 at a second-order anchor, (9/40) x^6 at the
tricritical point when p = 1, and otherwise c4'(beta_c) h x^4 = -(3/4) h x^4,
joined by (9/40) x^6 when p = 2. For kinds 1-5 the high-speed limit
polynomial g~ is the leading monomial of g; kind 6 has none (n G(x/n^(theta
alpha0)) -> 0 pointwise), so every g~-based operation rejects it.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, fields
from typing import NamedTuple
from fractions import Fraction

import numpy as np

from . import phase
from .minimize import ScaledFreeEnergy, weight_window
from .model import ModelParams, _is_real, check_beta, check_count
from .phase import BETA_C, classify, second_order_k, second_order_k_deriv
from .quadrature import weighted_ratio

TRICRITICAL_C4 = 3.0 / 16.0
TRICRITICAL_C6 = 9.0 / 40.0
XBAR_TIE_TOL = 1e-12
ALPHA_MATCH_TOL = 1e-12   # alpha within this of alpha0 is at the threshold
# Absolute tolerance for recognizing the boundary cases ell = K''(beta_c) and
# ell = ell_c of sequence 4.
CASE_MATCH_TOL = 1e-9
# K1'''(beta_c), the third derivative of the first-order curve at the
# tricritical point; no closed form is known. K1 is analytic there, since in
# s = t^2 the well-depth root is a simple root of f(t)/t^4. The value is the
# third derivative at h = 0 of the exact interpolation polynomial through
# 80-digit K1(beta_c + j/400), j = 1..14, and K(beta_c) at h = 0, which gives
# 0.910783757858502427 (tests/mp_reference.k1_taylor_mp).
K1_THIRD_DERIV_AT_BETA_C = 0.9107837578585024

KINDS = ("seq1", "seq2", "seq3", "seq4", "seq5", "seq6")

_REQUIRED_FIELDS = {
    "seq1": ("alpha", "beta", "b", "k"),
    "seq2": ("alpha", "beta", "b", "p", "ell"),
    "seq3": ("alpha", "b", "k"),
    "seq4": ("alpha", "ell", "ell_tilde", "case"),
    "seq5": ("alpha", "ell"),
    "seq6": ("alpha", "p", "ell"),
}

# seq2's anchor carries the subscripted name on the wire
_JSON_FIELD_NAMES = {"seq2": {"beta": "beta0"}}


class SpecValidationError(ValueError):
    """A sequence specification violates one of its defining inequalities."""


class UnsupportedSequenceError(ValueError):
    """The requested operation is undefined for this sequence kind."""


def c4_coefficient(beta: float) -> float:
    """Quartic scaling coefficient c4(beta) = (e^beta + 2)^2 (4 - e^beta)/192.

    Positive for beta < beta_c and zero at beta_c, where the quartic theory
    degenerates and the sextic tricritical polynomials take over.
    """
    eb = math.exp(beta)
    return (eb + 2.0) ** 2 * (4.0 - eb) / 192.0


@dataclass(frozen=True)
class EvenPolynomial:
    """Even polynomial c2 x^2 + c4 x^4 + c6 x^6 with positive leading term."""

    c2: float = 0.0
    c4: float = 0.0
    c6: float = 0.0

    def __post_init__(self):
        lead = self.c6 if self.c6 != 0 else (self.c4 if self.c4 != 0 else self.c2)
        if not (all(map(_is_real, (self.c2, self.c4, self.c6))) and lead > 0):
            raise ValueError("EvenPolynomial: coefficients must be finite with a positive "
                             f"leading one (coercive), got {self.c2!r}, {self.c4!r}, {self.c6!r}")

    @property
    def degree(self) -> int:
        if self.c6 != 0:
            return 6
        return 4 if self.c4 != 0 else 2

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        y = x * x
        return (self.c2 + (self.c4 + self.c6 * y) * y) * y

    def leading_term(self) -> "EvenPolynomial":
        if self.degree == 6:
            return EvenPolynomial(c6=self.c6)
        if self.degree == 4:
            return EvenPolynomial(c4=self.c4)
        return EvenPolynomial(c2=self.c2)

    def outer_well(self) -> float:
        """Largest positive root of g' (0 if none), past which g increases.

        Degree 6 takes the larger root y = x^2 of g'(x)/x = 2 c2 + 4 c4 y +
        6 c6 y^2; that quadratic rises through it, so it is a local minimum.
        """
        if self.degree == 4:
            return math.sqrt(-self.c2 / (2.0 * self.c4)) if self.c2 < 0 else 0.0
        disc = self.c4 * self.c4 - 3.0 * self.c6 * self.c2
        if self.degree == 2 or disc < 0:
            return 0.0
        y = (-self.c4 + math.sqrt(disc)) / (3.0 * self.c6)
        return math.sqrt(y) if y > 0 else 0.0

    def weight_window(self) -> tuple[float, float, tuple[float, ...]]:
        """minimize.weight_window at the outer well: (floor, cutoff, +-outer if outer)."""
        return weight_window(self, self.outer_well())


class Regime(enum.Enum):
    BELOW = "below"
    AT = "at"
    ABOVE = "above"


@dataclass(frozen=True)
class ScalingExponents:
    """Threshold speed alpha0 and magnetization exponent theta of a sequence."""

    alpha0: float
    theta: float

    @property
    def theta_alpha0(self) -> float:
        return self.theta * self.alpha0

    def kappa(self, alpha: float) -> float:
        """Conjectured fluctuation exponent (1/2)(1 - alpha/alpha0) + theta*alpha."""
        return 0.5 * (1.0 - alpha / self.alpha0) + self.theta * alpha

    def regime(self, alpha: float) -> Regime:
        """The regime of speed alpha: AT within ALPHA_MATCH_TOL of alpha0."""
        if alpha < self.alpha0 - ALPHA_MATCH_TOL:
            return Regime.BELOW
        if alpha <= self.alpha0 + ALPHA_MATCH_TOL:
            return Regime.AT
        return Regime.ABOVE

    def e_exponent(self, alpha: float) -> float:
        """Decay exponent of E|S_n/n|: theta alpha below alpha0, theta alpha0 at and above."""
        return self.theta * alpha if self.regime(alpha) is Regime.BELOW else self.theta_alpha0


class MinimumSet(enum.Enum):
    PLUS_MINUS = "plus-minus"
    THREE_POINT = "three-point"


@dataclass(frozen=True)
class XbarResult:
    value: float
    minimum_set: MinimumSet


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: float | None = None
    note: str = ""


def _parse_alpha(value) -> float:
    """alpha from a number or a decimal or rational string: 0.25, "0.25", "1/4"."""
    if isinstance(value, str):
        try:
            return float(Fraction(value))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    if not _is_real(value):
        raise ValueError(f"must be a finite int or float or a rational string, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class SequenceSpec:
    """One of the six sequences, with its speed alpha and shape parameters.

    Structural constraints (field presence, admissible b and p, anchor beta
    inside (0, beta_c)) are enforced at construction; the coexistence
    inequalities are evaluated by validate().
    """

    kind: str
    alpha: float
    beta: float | None = None        # anchor point, kinds 1 and 2 only
    b: int | None = None             # +-1 or 0 where admitted
    k: float | None = None           # kinds 1 and 3
    p: int | None = None             # kinds 2 (2..12) and 6 (3..12)
    ell: float | None = None         # kinds 2, 4, 5, 6
    ell_tilde: float | None = None   # kind 4
    case: str | None = None          # kind 4: "a".."d"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"SequenceSpec: kind must be one of {KINDS}, got {self.kind!r}")
        try:
            object.__setattr__(self, "alpha", _parse_alpha(self.alpha))
        except (ValueError, ArithmeticError) as exc:
            raise ValueError(f"SequenceSpec: alpha: {exc}") from None
        if not self.alpha > 0:
            raise ValueError(f"SequenceSpec: alpha must be > 0, got {self.alpha}")
        required = _REQUIRED_FIELDS[self.kind]
        for f in fields(self):
            if f.name in ("kind", "alpha"):
                continue
            val = getattr(self, f.name)
            if f.name in required and val is None:
                raise ValueError(f"SequenceSpec: {self.kind} requires field {f.name!r}")
            if f.name not in required and val is not None:
                raise ValueError(f"SequenceSpec: {self.kind} does not take field {f.name!r}")
            if val is None or f.name == "case":
                continue
            if f.name in ("b", "p"):
                object.__setattr__(self, f.name, check_count("SequenceSpec", val, f.name, None))
            elif not _is_real(val):
                raise ValueError(
                    f"SequenceSpec: {f.name}: must be a finite int or float, got {val!r}")
        if self.kind in ("seq1", "seq2"):
            if not (0.0 < self.beta < BETA_C):
                raise ValueError("SequenceSpec: anchor beta must lie strictly inside "
                                 f"(0, beta_c), got {self.beta}")
        if self.kind in ("seq1", "seq3") and self.b not in (-1, 0, 1):
            raise ValueError(f"SequenceSpec: b must be in {{-1, 0, 1}}, got {self.b}")
        if self.kind == "seq2" and self.b not in (-1, 1):
            raise ValueError(f"SequenceSpec: seq2 requires b in {{-1, 1}}, got {self.b}")
        low = {"seq2": 2, "seq6": 3}.get(self.kind)
        if low is not None and not low <= self.p <= phase.MAX_CURVE_DERIV_ORDER:
            raise ValueError(f"SequenceSpec: {self.kind} requires integer p in "
                             f"[{low}, {phase.MAX_CURVE_DERIV_ORDER}], got {self.p}")
        if self.kind == "seq4" and self.case not in ("a", "b", "c", "d"):
            raise ValueError(f"SequenceSpec: seq4 case must be one of a-d, got {self.case!r}")


class _Approach(NamedTuple):
    """One row of the module docstring's per-kind table."""

    beta0: float
    h: int
    p: int
    ell: float
    s: int
    c4: float
    c6: float
    exponents: ScalingExponents

    @property
    def d(self) -> float:
        """K^(p)(beta0) h^p - ell s: g's quadratic coefficient over beta0 / p!,
        negative in phase coexistence."""
        return second_order_k_deriv(self.beta0, self.p) * self.h**self.p - self.ell * self.s


def _approach(spec: SequenceSpec) -> _Approach:
    """The anchor, direction, order and perturbation of the sequence, with
    the higher coefficients of g and the exponents they fix."""
    if spec.kind == "seq1":
        beta0, h, p, ell, s = spec.beta, spec.b, 1, spec.k, 1
    elif spec.kind == "seq2":
        beta0, h, p, ell, s = spec.beta, spec.b, spec.p, spec.ell, spec.b**spec.p
    elif spec.kind == "seq3":
        beta0, h, p, ell, s = BETA_C, spec.b, 1, spec.k, 1
    elif spec.kind == "seq6":
        beta0, h, p, ell, s = BETA_C, -1, spec.p, spec.ell, (-1) ** spec.p
    else:
        beta0, h, p, ell, s = BETA_C, 1 if spec.kind == "seq4" else -1, 2, spec.ell, 1
    if beta0 != BETA_C:
        return _Approach(beta0, h, p, ell, s, c4_coefficient(beta0), 0.0,
                         ScalingExponents(1.0 / (2 * p), p / 2.0))
    if p == 1:
        return _Approach(beta0, h, p, ell, s, 0.0, TRICRITICAL_C6,
                         ScalingExponents(2.0 / 3.0, 0.25))
    return _Approach(beta0, h, p, ell, s, -4.0 * TRICRITICAL_C4 * h,
                     TRICRITICAL_C6 if p == 2 else 0.0,
                     ScalingExponents(1.0 / (2 * p - 1), (p - 1) / 2.0))


def validate(spec: SequenceSpec) -> list[CheckResult]:
    """Evaluate the coexistence inequalities of the sequence, with margins.

    Margins are signed so that positive means satisfied. Each kind checks
    d = K^(p)(beta0) h^p - ell s < 0 with margin -d, and the p = 1 kinds also
    k != 0, which d < 0 does not imply; seq4 cases b-d check their case rules
    instead. Cases (c) and (d) carry a note that phase-coexistence membership
    rests on the two tricritical-curve conjectures (K1' = K' and K1'' = ell_c).
    """
    a = _approach(spec)
    checks: list[CheckResult] = []
    if a.p == 1:
        checks.append(CheckResult("k nonzero", spec.k != 0, abs(spec.k)))
    if spec.kind != "seq4" or spec.case == "a":
        margin = -a.d
        checks.append(CheckResult("K^(p)(beta0) h^p - ell s < 0", margin > 0, margin))
        return checks
    kpp = second_order_k_deriv(BETA_C, 2)
    ell_c = phase.critical_constants().ell_c
    conj_note = ("coexistence membership for this case rests on the "
                 "tricritical-curve conjectures K1'(beta_c) = K'(beta_c) and "
                 "K1''(beta_c) = ell_c")
    if spec.case == "b":
        checks.append(CheckResult("case b: ell = K''(beta_c)",
                                  abs(spec.ell - kpp) <= CASE_MATCH_TOL,
                                  -abs(spec.ell - kpp)))
        margin = spec.ell_tilde - second_order_k_deriv(BETA_C, 3)
        checks.append(CheckResult("case b: ell_tilde > K'''(beta_c)",
                                  margin > 0, margin))
    elif spec.case == "c":
        lo = spec.ell - ell_c
        hi = kpp - spec.ell
        checks.append(CheckResult("case c: ell_c < ell < K''(beta_c)",
                                  lo > 0 and hi > 0, min(lo, hi), conj_note))
    else:
        checks.append(CheckResult("case d: ell = ell_c",
                                  abs(spec.ell - ell_c) <= CASE_MATCH_TOL,
                                  -abs(spec.ell - ell_c), conj_note))
        margin = spec.ell_tilde - K1_THIRD_DERIV_AT_BETA_C
        checks.append(CheckResult(
            "case d: ell_tilde > K1'''(beta_c)", margin > 0, margin,
            "conjecture-dependent: K1'''(beta_c) has no closed form and is "
            "taken from the power series of the first-order curve at beta_c"))
    return checks


def require_valid(op: str, spec: SequenceSpec) -> None:
    """Raise a SpecValidationError naming op and every failed coexistence check."""
    failed = [c for c in validate(spec) if not c.passed]
    if failed:
        raise SpecValidationError(f"{op}: " + "; ".join(
            f"violated: {c.name} (margin {c.margin:.6g})" for c in failed))


def params_at(spec: SequenceSpec, n: int) -> ModelParams:
    """The point (beta_n, K_n) of the sequence at index n; raises naming n
    when beta_n leaves (0, BETA_MAX], as it can at small n. K_n is a float:
    once the order-p term ell s/(p! n^(p alpha)) falls below half an ulp of
    K, the point lands on the curve and rows built on it are silently wrong
    (seq1 at beta = 1, b = 0, k = 1, alpha = 0.8 gives m = 0 at n = 10^50)."""
    require_valid("params_at", spec)
    return _point(spec, check_count("params_at", n))


def _point(spec: SequenceSpec, n: int) -> ModelParams:
    """params_at for a spec and an n its caller has checked."""
    a = _approach(spec)
    na = float(n) ** spec.alpha
    kappa_n = second_order_k(a.beta0)
    for j in range(1, a.p):
        kappa_n += second_order_k_deriv(a.beta0, j) * a.h**j / (math.factorial(j) * na**j)
    kappa_n += a.ell * a.s / (math.factorial(a.p) * na**a.p)
    if spec.kind == "seq4":
        kappa_n += spec.ell_tilde / (6.0 * na**3)
    beta_n = a.beta0 + a.h / na
    check_beta(f"params_at: beta_n at n = {n}", beta_n)
    return ModelParams(beta_n, kappa_n)


def coexistence_onset(spec: SequenceSpec) -> int:
    """Smallest probed n from which the sequence sits in phase coexistence.

    Probes powers of two up to 2^20 and returns the first probe after the
    last excursion outside {coexistence, first-order curve}. A probe whose
    beta_n or K_n is no model point counts as outside.
    """
    require_valid("coexistence_onset", spec)
    ok_regions = (phase.PhaseRegion.COEXISTENCE, phase.PhaseRegion.FIRST_ORDER_CURVE)
    onset = None
    n = 1
    while n <= 2**20:
        try:
            inside = classify(_point(spec, n)) in ok_regions
        except ValueError:  # beta_n or K_n out of range
            inside = False
        if not inside:
            onset = None
        elif onset is None:
            onset = n
        n *= 2
    if onset is None:
        raise SpecValidationError("coexistence_onset: sequence never entered the "
                                  "coexistence region up to n = 2^20")
    return onset


def _scaling(op: str, spec: SequenceSpec, *allowed: Regime, alpha=None
             ) -> tuple[EvenPolynomial, ScalingExponents, Regime, EvenPolynomial | None]:
    """The one gate from a spec, checked by its caller, to (g, exponents,
    regime, limit): the regime is that of alpha (spec.alpha unless given), the
    limit the weak-limit polynomial, g at alpha0 and g~ above, else None.

    With no allowed regimes it forms no limit. Otherwise a regime outside
    allowed raises naming op, and so does seq6 above alpha0, which has no g~.
    """
    a = _approach(spec)
    g = EvenPolynomial(c2=a.beta0 * a.d / math.factorial(a.p), c4=a.c4, c6=a.c6)
    regime = a.exponents.regime(spec.alpha if alpha is None else alpha)
    if allowed and regime not in allowed:
        raise ValueError(f"{op}: requires alpha {' or '.join(r.value for r in allowed)} "
                         f"alpha0 = {a.exponents.alpha0:.6g} (tolerance {ALPHA_MATCH_TOL:g}), "
                         f"got {spec.alpha!r}")
    if allowed and regime is Regime.ABOVE and spec.kind == "seq6":
        raise UnsupportedSequenceError(
            f"{op}: seq6 has no coercive high-order limit polynomial: the scaled "
            "free energy n G(x/n^(theta alpha0)) converges to 0 pointwise, so no "
            "above-threshold asymptotics exist for it")
    limit = (None if not allowed or regime is Regime.BELOW
             else g if regime is Regime.AT else g.leading_term())
    return g, a.exponents, regime, limit


def scaling_exponents(spec: SequenceSpec) -> ScalingExponents:
    return _scaling("scaling_exponents", spec)[1]


def gl_polynomial(spec: SequenceSpec) -> tuple[EvenPolynomial, ScalingExponents]:
    """Scaling polynomial g and exponents (alpha0, theta) of the sequence."""
    require_valid("gl_polynomial", spec)
    return _scaling("gl_polynomial", spec)[:2]


def g_tilde(spec: SequenceSpec) -> EvenPolynomial:
    """Leading monomial of g, the weight of the high-speed limit density."""
    g_above = _scaling("g_tilde", spec, Regime.ABOVE, alpha=math.inf)[3]
    require_valid("g_tilde", spec)
    return g_above


def weak_limit_polynomial(spec: SequenceSpec) -> EvenPolynomial:
    """Polynomial whose exp(-poly) is the weak limit of S_n/n^(1-theta alpha0):
    g at alpha0 and g~ above it. Below alpha0 it raises a ValueError."""
    require_valid("weak_limit_polynomial", spec)
    return _scaling("weak_limit_polynomial", spec, Regime.AT, Regime.ABOVE)[3]


def xbar(g: EvenPolynomial) -> XbarResult:
    """Positive global minimizer of g, with the shape of its minimum set.

    The candidate is g.outer_well(), the largest positive stationary point. A
    positive minimizer whose depth ties g(0) = 0 within 1e-12 flags the
    three-point minimum set {0, +-xbar}; value 0 means the origin is the only
    minimizer.
    """
    best = g.outer_well()
    if not best:
        return XbarResult(0.0, MinimumSet.PLUS_MINUS)
    depth = float(g(best))
    if depth > XBAR_TIE_TOL:
        return XbarResult(0.0, MinimumSet.PLUS_MINUS)
    if abs(depth) <= XBAR_TIE_TOL:
        return XbarResult(best, MinimumSet.THREE_POINT)
    return XbarResult(best, MinimumSet.PLUS_MINUS)


def limit_constant(poly: EvenPolynomial) -> float:
    """First absolute moment of the density proportional to exp(-poly).

    Yields the constant named ybar when given the leading monomial g~ and
    zbar when given the full scaling polynomial g; see poly.weight_window().
    """
    return weighted_ratio(abs, poly)


def _points(op: str, spec, n_list, check=check_count) -> list[tuple[int, ModelParams]]:
    """Pairs (n, params_at(spec, n)) by increasing n, raising naming op on an
    invalid spec, a bad n or an empty n_list; a fixed ModelParams spec is the
    constant sequence. Every report and check starts here, with the one
    validation of its spec outside params_at, then passes the gate _scaling."""
    if isinstance(spec, SequenceSpec):
        require_valid(op, spec)
    ns = sorted(check(op, n) for n in n_list)
    if not ns:
        raise ValueError(f"{op}: n_list is empty")
    return [(n, spec if isinstance(spec, ModelParams) else params_at(spec, n)) for n in ns]


def _scaled_free_energies(points, speed: float, shrink: float):
    """(n, n^speed G_n(y/n^shrink)) per pair of _points: the one loop of the exponents."""
    return [(n, ScaledFreeEnergy(params, float(n) ** speed, float(n) ** shrink))
            for n, params in points]


def check_hypothesis_iiia(spec: SequenceSpec, radius: float, n_list) -> list[tuple[int, float]]:
    """Sup-error of n^(alpha/alpha0) G(x/n^(theta alpha)) against g on [-R, R].

    Returns (n, sup_error) rows; along a geometric n list the column should
    decrease, which is the numerical content of the compact-uniform limit.
    """
    if not (_is_real(radius) and radius > 0):
        raise ValueError(f"check_hypothesis_iiia: radius must be finite and > 0, got {radius!r}")
    points = _points("check_hypothesis_iiia", spec, n_list)
    g, exps = _scaling("check_hypothesis_iiia", spec)[:2]
    try:
        rows = _scaled_free_energies(points, spec.alpha / exps.alpha0, exps.theta * spec.alpha)
    except OverflowError:   # n^(alpha/alpha0), first at the largest n
        raise ValueError("check_hypothesis_iiia: n^(alpha/alpha0) leaves the float range at "
                         f"n = {points[-1][0]:.6g}") from None
    xs = np.linspace(-radius, radius, 2001)
    gx = g(xs)
    return [(n, float(np.max(np.abs(phi(xs) - gx)))) for n, phi in rows]


def check_hypothesis_v(spec: SequenceSpec, x_grid, n_list) -> list[tuple[int, np.ndarray]]:
    """Pointwise error of n G(x/n^(theta alpha0)) against the leading monomial.

    Requires Regime.ABOVE; rejects seq6 for the same reason g_tilde does.
    """
    points = _points("check_hypothesis_v", spec, n_list)
    _, exps, _, g_above = _scaling("check_hypothesis_v", spec, Regime.ABOVE)
    rows = _scaled_free_energies(points, 1.0, exps.theta_alpha0)
    xs = np.asarray(x_grid, dtype=float)
    gx = g_above(xs)
    return [(n, np.abs(phi(xs) - gx)) for n, phi in rows]


def scaled_free_energy_table(spec: SequenceSpec, x_grid, n_list) -> list[tuple[int, np.ndarray]]:
    """Raw values n G(x/n^(theta alpha0)) per grid point and n.

    Diagnostic companion to check_hypothesis_v: for seq6 it exhibits the
    degenerate pointwise limit 0 instead of a coercive polynomial.
    """
    points = _points("scaled_free_energy_table", spec, n_list)
    xs = np.asarray(x_grid, dtype=float)
    return [(n, phi(xs)) for n, phi in _scaled_free_energies(
        points, 1.0, _scaling("scaled_free_energy_table", spec)[1].theta_alpha0)]


def spec_to_json(spec: SequenceSpec) -> str:
    renames = _JSON_FIELD_NAMES.get(spec.kind, {})
    doc = {"kind": spec.kind, "alpha": spec.alpha}
    for name in _REQUIRED_FIELDS[spec.kind]:
        doc[renames.get(name, name)] = getattr(spec, name)
    return json.dumps(doc, sort_keys=True)


def spec_from_json(source) -> SequenceSpec:
    """Parse a SequenceSpec from a JSON document or already-decoded mapping.

    Exactly the fields of the declared kind are accepted (seq2's anchor is
    spelled beta0 on the wire); unknown or missing fields are rejected by
    name. alpha may be given as a rational string ("2/3") for exact threshold
    comparisons.
    """
    try:
        doc = dict(json.loads(source) if isinstance(source, str) else source)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"spec_from_json: expected a JSON object: {exc}") from None
    if "kind" not in doc:
        raise ValueError("spec_from_json: sequence document must carry a 'kind' field")
    kind = doc.pop("kind")
    if kind not in KINDS:
        raise ValueError(f"spec_from_json: kind must be one of {KINDS}, got {kind!r}")
    renames = _JSON_FIELD_NAMES.get(kind, {})
    allowed = {renames.get(f, f) for f in _REQUIRED_FIELDS[kind]} | {"alpha"}
    unknown = set(doc) - allowed
    if unknown:
        raise ValueError(
            f"spec_from_json: unknown field(s) for {kind}: {', '.join(sorted(unknown))}")
    missing = allowed - set(doc)
    if missing:
        raise ValueError(
            f"spec_from_json: missing field(s) for {kind}: {', '.join(sorted(missing))}")
    back = {wire: attr for attr, wire in renames.items()}
    return SequenceSpec(kind=kind, **{back.get(k, k): v for k, v in doc.items()})
