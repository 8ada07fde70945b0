"""End-to-end experiments: scaled magnetization tables along the six
sequences, the three finite-size regimes split by the threshold speed alpha0,
tail-decay rate estimates, weak-limit distances, and the exploratory
fluctuation-exponent fit.

The regime of a run is decided by comparing the sequence speed alpha with the
kind's threshold alpha0 (ScalingExponents.regime, tolerance 1e-12; supply
alpha as a rational string such as "1/3" in configs for exact threshold hits):

    below  (alpha < alpha0): E|S_n/n| ~ xbar / n^(theta alpha), asymptotic to
                             the thermodynamic magnetization;
    at     (alpha = alpha0): E|S_n/n| ~ zbar / n^(theta alpha0);
    above  (alpha > alpha0): E|S_n/n| ~ ybar / n^(theta alpha0), which decays
                             strictly slower than the thermodynamic
                             magnetization: the thermodynamic value stops
                             being a faithful estimator of the finite-size
                             magnetization past the threshold.

Every report runs one prelude under its own name: sequences._points checks
the spec and the n list once and pairs each n with params_at, then the gate
sequences._scaling decides the regime and the limit, rejecting a regime the
report does not admit and seq6 above alpha0. _row makes every ReportRow.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .finite_size import (abs_moment, check_n, finite_size_law, log_tail_mass,
                          mc_estimate)
from .minimize import magnetization
from .model import ModelParams
from .sequences import (MinimumSet, Regime, ScalingExponents, SequenceSpec, _points,
                        _scaled_free_energies, _scaling, limit_constant, xbar)


class Estimator(enum.Enum):
    EXACT = "exact"
    MONTE_CARLO = "monte-carlo"


@dataclass(frozen=True)
class ReportRow:
    n: int
    beta_n: float
    kappa_n: float
    m_thermo: float
    e_finite: float | None
    scaled_m: float
    scaled_e: float | None


@dataclass(frozen=True)
class ReportConstants:
    alpha0: float
    theta: float
    regime: Regime
    x_bar: float | None
    y_bar: float | None = None
    z_bar: float | None = None
    banner: str | None = None


@dataclass(frozen=True)
class AsymptoticsReport:
    rows: tuple[ReportRow, ...]
    constants: ReportConstants


def _constants_for(op: str, spec: SequenceSpec) -> tuple[ReportConstants, ScalingExponents]:
    """Report constants, and the exponents that scale the report's columns;
    seq6 above alpha0, which has no limit constant, fails naming op."""
    g, exps, regime, limit = _scaling(op, spec, *Regime)
    xb = xbar(g)
    three_point = xb.minimum_set is MinimumSet.THREE_POINT
    constant = None if limit is None else limit_constant(limit)
    return ReportConstants(
        alpha0=exps.alpha0, theta=exps.theta, regime=regime,
        x_bar=None if three_point else xb.value,
        y_bar=constant if regime is Regime.ABOVE else None,
        z_bar=constant if regime is Regime.AT else None,
        banner=("three-point-limit conjecture: the scaling polynomial has "
                "global minimizers {0, +-xbar}, the below-threshold limit "
                "is conjectural and no xbar comparison is attached") if three_point else None), exps


def _row(spec: SequenceSpec, exps: ScalingExponents, n: int, params: ModelParams,
         e: float | None = None) -> ReportRow:
    """The row of the point (n, params): m(beta_n, K_n) and moment e, each scaled."""
    m = magnetization(params)
    return ReportRow(
        n=n, beta_n=params.beta, kappa_n=params.kappa, m_thermo=m, e_finite=e,
        scaled_m=float(n) ** (exps.theta * spec.alpha) * m,
        scaled_e=None if e is None else float(n) ** exps.e_exponent(spec.alpha) * e)


def run_thermo_asymptotics(spec: SequenceSpec, n_list) -> AsymptoticsReport:
    """Scaled thermodynamic magnetization n^(theta alpha) m(beta_n, K_n) per n.

    Cost is independent of n, so the list may run to 10^9 and beyond; the
    scaled column converges to xbar.
    """
    points = _points("run_thermo_asymptotics", spec, n_list)
    consts, exps = _constants_for("run_thermo_asymptotics", spec)
    rows = [_row(spec, exps, n, params) for n, params in points]
    return AsymptoticsReport(rows=tuple(rows), constants=consts)


def run_finite_size_asymptotics(spec: SequenceSpec, n_list,
                                estimator: Estimator = Estimator.EXACT,
                                sweeps: int = 20000, seed: int = 0,
                                threads: int | None = None) -> AsymptoticsReport:
    """Finite-size magnetization table with the regime-appropriate scaling.

    The scaled-e column uses exponent theta*alpha below the threshold and
    theta*alpha0 at and above it; the matching limit constant (xbar, zbar or
    ybar) is attached. Rows are independent and are computed on a thread pool
    when threads > 1; the merge is by sorted n, so the output is identical for
    any thread count. Every row holds the GIL, so the pool never pays off: on
    a 2-core x86-64 box the nine seq1 rows of the crossover-exact benchmark
    took 11 ms serially and 15 ms with threads=2, and four rows near
    n = 10^6 0.96 s either way, with 18% more CPU. The CLI never passes
    threads. Monte Carlo rows are seeded per row as seed ^ n. An n that is
    no int in 1..N_MAX fails before any row runs.
    """
    points = _points("run_finite_size_asymptotics", spec, n_list, check_n)
    consts, exps = _constants_for("run_finite_size_asymptotics", spec)

    def row(n: int, params: ModelParams) -> ReportRow:
        if estimator is Estimator.EXACT:
            e = abs_moment(finite_size_law(n, params))
        else:
            e = mc_estimate(n, params, sweeps=sweeps, seed=seed ^ n).mean
        return _row(spec, exps, n, params, e)

    if threads is not None and threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(row, *zip(*points)))
    else:
        rows = [row(n, params) for n, params in points]
    return AsymptoticsReport(rows=tuple(rows), constants=consts)


def estimator_comparison(spec_or_params, n_list) -> list[tuple[int, float]]:
    """Rows (n, E|S_n/n| / m(beta_n, K_n)) along a sequence.

    Below the threshold the ratio tends to 1; above it the column increases
    without bound. Passing fixed ModelParams runs the degenerate constant
    sequence, whose ratio tends to 1 at any coexistence point. A ValueError
    names the first n whose m(beta_n, K_n) is 0, outside coexistence.
    """
    points = _points("estimator_comparison", spec_or_params, n_list, check_n)
    if isinstance(spec_or_params, SequenceSpec):  # the report's seq6 guard, no limit constant
        _scaling("estimator_comparison", spec_or_params, *Regime)
    rows = []
    for n, params in points:
        m = magnetization(params)
        if m <= 0:
            raise ValueError(f"estimator_comparison: m(beta_n, K_n) = 0 at n = {n}, "
                             "outside coexistence")
        rows.append((n, abs_moment(finite_size_law(n, params)) / m))
    return rows


@dataclass(frozen=True)
class MdpRow:
    n: int
    rate_est: float | None
    saturated: bool


@dataclass(frozen=True)
class MdpReport:
    rows: tuple[MdpRow, ...]
    target: float      # g(a) - g(xbar), the rate's limit as n -> infinity
    a: float
    u: float


def mdp_rate_estimate(spec: SequenceSpec, a: float, n_list) -> MdpReport:
    """Empirical tail-decay rates -n^-u log P{|S_n/n^(1-theta alpha)| >= a}.

    Requires alpha < alpha0 (so the speed exponent u = 1 - alpha/alpha0 is
    positive) and a > xbar (so the predicted rate g(a) - g(xbar) is positive).
    A row is saturated, with no rate, exactly when its tail is empty: a > n^(theta alpha).

    `target` is the n -> infinity limit of the rate. At enumerable n the rate
    also carries a free-energy shift that decays like n^-alpha and a prefactor
    term of order log n / n^u.
    """
    points = _points("mdp_rate_estimate", spec, n_list, check_n)
    g, exps = _scaling("mdp_rate_estimate", spec, Regime.BELOW)[:2]
    xb = xbar(g).value
    if not (math.isfinite(a) and a > xb):
        raise ValueError(
            f"mdp_rate_estimate: threshold a must be finite and exceed xbar = {xb:.6g} "
            f"(the rate vanishes on [0, xbar]), got {a}")
    u = 1.0 - spec.alpha / exps.alpha0
    gamma = exps.theta * spec.alpha
    target = float(g(a) - g(xb))
    rows = []
    for n, params in points:
        log_p = log_tail_mass(finite_size_law(n, params), gamma, a)
        saturated = log_p == -math.inf
        rows.append(MdpRow(n=n, rate_est=None if saturated else -log_p / float(n) ** u,
                           saturated=saturated))
    return MdpReport(rows=tuple(rows), target=target, a=a, u=u)


def _cdf(log_weight: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """CDF on grid of the density proportional to e^log_weight, by the
    cumulative trapezoid rule, normalized to end at 1."""
    y = np.exp(log_weight - np.max(log_weight))
    cdf = np.concatenate(([0.0], np.cumsum(np.diff(grid) * (y[1:] + y[:-1]) / 2.0)))
    return cdf / cdf[-1]


def weak_limit_distance(spec: SequenceSpec, n: int) -> float:
    """Kolmogorov distance between the smoothed law of S_n/n^(1-theta alpha0)
    and its limit density, proportional to exp(-g~) above the threshold and
    to exp(-g) at it.

    The smoothing adds the Gaussian W/n^(1/2-theta alpha0) of the smoothing
    identity (the auxiliary variable of hs_lhs), which leaves the weak limit
    untouched. By that identity the smoothed law has the density proportional
    to exp(-n G_n(y/n^(theta alpha0))), so both CDFs come from one trapezoid
    rule on one 40001-point grid, cut where both weights are below e^-60 of
    their peaks (both weight_window cutoffs). Cost does not depend on n.
    """
    points = _points("weak_limit_distance", spec, [n])
    _, exps, _, poly = _scaling("weak_limit_distance", spec, Regime.AT, Regime.ABOVE)
    [(_, phi)] = _scaled_free_energies(points, 1.0, exps.theta_alpha0)
    half_width = max(poly.weight_window()[1], phi.weight_window()[1])
    grid = np.linspace(-half_width, half_width, 40001)
    cdf_n = _cdf(-phi(grid), grid)
    return float(np.max(np.abs(cdf_n - _cdf(-poly(grid), grid))))


@dataclass(frozen=True)
class KappaFitReport:
    fitted_exponent: float
    conjectured_kappa: float
    rows: tuple[tuple[int, float], ...]  # (n, E||S_n/n| - m_n|)


def kappa_fluctuation_estimate(spec: SequenceSpec, n_list) -> KappaFitReport:
    """Exploratory log-log fit of E| |S_n/n| - m(beta_n, K_n) | against n.

    The conjectured decay exponent (1/2)(1 - alpha/alpha0) + theta*alpha is
    reported alongside the fitted slope for informal comparison only; nothing
    here is asserted by the acceptance suite.
    """
    points = _points("kappa_fluctuation_estimate", spec, n_list, check_n)
    exps = _scaling("kappa_fluctuation_estimate", spec, Regime.BELOW)[1]
    ns = [n for n, _ in points]
    if len(set(ns)) < 2:
        raise ValueError("kappa_fluctuation_estimate: the fit needs at least two "
                         f"distinct n, got {ns}")
    rows = []
    for n, params in points:
        m = magnetization(params)
        law = finite_size_law(n, params)
        s = law.support()
        dev = np.abs(np.abs(s / law.n) - m)
        val = float(np.sum(law.probabilities() * dev))
        rows.append((n, val))
    vals = np.array([r[1] for r in rows])
    slope = np.polyfit(np.log(np.asarray(ns, dtype=float)), np.log(vals), 1)[0]
    return KappaFitReport(fitted_exponent=float(-slope),
                          conjectured_kappa=exps.kappa(spec.alpha),
                          rows=tuple(rows))
