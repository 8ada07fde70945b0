"""Harness operations: magnetization solver, report machinery, regime
bookkeeping, tail-rate and weak-limit plumbing."""

import dataclasses
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest
from mixture_oracle import mixture_distance
from mp_reference import (magnetization_mp, spinodal_numerator_decimal,
                          spinodal_numerator_mp)
from scipy.special import ndtr

from bclab import (BETA_C, N_MAX, EnumerationLimitError, Estimator, EvenPolynomial,
                   MinimumSet, ModelParams, PhaseRegion, QuadratureError, Regime, SequenceSpec,
                   SpecValidationError, UnsupportedSequenceError, aitken_limit,
                   check_hypothesis_iiia, check_hypothesis_v, classify, coexistence_onset,
                   cumulant, cumulant_deriv, estimator_comparison, finite_size_law,
                   first_order_k, free_energy, free_energy_deriv, g_tilde,
                   gl_polynomial, kappa_fluctuation_estimate, magnetization,
                   mdp_rate_estimate, params_at, run_finite_size_asymptotics,
                   run_thermo_asymptotics, scaled_free_energy_table,
                   second_order_k, second_order_k_deriv, verify_tricritical_conjectures,
                   weak_limit_distance, weak_limit_polynomial, xbar)
from bclab import abs_moment, harness, hs_lhs, hs_rhs, mc_estimate, minimize, model, sequences
from bclab.finite_size import log_tail_mass
from bclab.minimize import min_free_energy
from bclab.model import BETA_MAX, Tilt
from bclab.quadrature import gaussian_mixture_expectation, weighted_ratio
from bclab.sequences import K1_THIRD_DERIV_AT_BETA_C

SEQ1_BELOW = SequenceSpec(kind="seq1", alpha=0.3, beta=1.0, b=0, k=1.0)
SEQ1_ABOVE = SequenceSpec(kind="seq1", alpha=0.8, beta=1.0, b=0, k=1.0)
SEQ1_AT = SequenceSpec(kind="seq1", alpha=0.5, beta=1.0, b=0, k=1.0)
SEQ1_ZERO_K = SequenceSpec(kind="seq1", alpha=0.3, beta=1.0, b=1, k=0.0)  # fails "k nonzero"


class TestThermoMagnetization:
    def test_single_phase_is_zero(self):
        assert magnetization(ModelParams(1.0, 1.0)) == 0.0

    def test_coexistence_minimizer(self):
        params = ModelParams(1.0, 1.5)
        m = magnetization(params)
        assert m > 0
        assert abs(free_energy_deriv(params, m, 1)) < 1e-10
        assert free_energy(params, m) < 0
        # grid-scan bracketing oracle
        xs = np.linspace(0, 1, 10001)
        assert abs(xs[np.argmin(free_energy(params, xs))] - m) < 1e-3

    def test_continuous_bifurcation_onset(self):
        for beta in (0.8, 1.0, 1.2):
            ms = [magnetization(ModelParams(beta, second_order_k(beta) + eps))
                  for eps in (1e-2, 1e-3, 1e-4)]
            assert ms[0] > ms[1] > ms[2] > 0

    def test_matches_mpmath(self):
        # just above the second-order curve, past the last cell of a
        # 4001-point scan of [0, 1] (m > 0.99975), and at the beta ceiling.
        # At K(beta)(1 + 1.3e-12) (beta = 0.2278) and K(beta)(1 + 1.4e-9)
        # (beta = 0.3063) a Newton descent in t stopped 1.8e-9 off. Above
        # beta_c, at K(beta)(1 - 1.8e-7), the secant excess rho sits near 0,
        # where its rounding (about 1e-16) moves m by up to about 1e-14 and a
        # stop rule on the step alone never fired; the last point has its
        # root just above s = 1, past the series start
        points = ([(b, second_order_k(b) + 1e-6) for b in (0.8, 1.0, 1.2)]
                  + [(3.0, 2.1), (BETA_MAX, 2.0), (BETA_MAX, 1.0 + 1e-12),
                     (0.22784684517236403, 3.5724578084162206),
                     (0.3062691303615972, 2.7413371909544346),
                     (1.4396495798417763, 1.0799881923626093),
                     (1.0225197664235288, 1.2226358611834702)])
        for beta, kappa in points:
            ref = magnetization_mp(beta, kappa)
            assert ref > 0
            assert abs(magnetization(ModelParams(beta, kappa)) - ref) <= 1e-14 * ref

    def test_matches_mpmath_near_the_curve(self):
        # README's 1e-15 relative below beta_c, from 1e-12 to 1e-3 above K(beta)
        rng = np.random.default_rng(21)
        for _ in range(100):
            beta = rng.uniform(0.2, 1.386)
            kappa = second_order_k(beta) + 10.0 ** rng.uniform(-12.0, -3.0)
            ref = magnetization_mp(beta, kappa)
            assert abs(magnetization(ModelParams(beta, kappa)) - ref) <= 1e-15 * ref, (beta, kappa)

    def test_discontinuous_bifurcation(self):
        beta = 1.8
        k1 = first_order_k(beta)
        assert magnetization(ModelParams(beta, k1)) > 0.05
        assert magnetization(ModelParams(beta, k1 - 1e-3)) == 0.0

    def test_ordered_limit_far_above_the_curve(self):
        # from K = 1.8e16 K(beta) on, K(beta)/K - 1 rounds to -1 and the
        # Newton step divided by 1 + rho_K = 0 (a bare ZeroDivisionError); at
        # K = 5e307, 4 beta K overflowed and m came out 0
        for beta, kappa in ((1.0, 1e16), (1.0, 1e17), (1.0, 1e300), (1.0, 5e307),
                            (BETA_MAX, 1e300)):
            params = ModelParams(beta, kappa)
            assert magnetization(params) == 1.0
            assert min_free_energy(params) == (free_energy(params, 1.0), 1.0)

    def test_ordered_limit_beyond_the_floats(self):
        # 2 beta K overflows: the outer tilt was inf and Tilt.depth raised.
        # G(1) = -beta K + beta + log(1 + 2 e^-beta) is -inf once beta K is
        for beta, kappa, g in ((1.0, 1e308, -1e308), (2.0, 1e308, -math.inf),
                               (BETA_MAX, 1.7976931348623157e308, -math.inf)):
            params = ModelParams(beta, kappa)
            assert magnetization(params) == 1.0
            assert min_free_energy(params) == (g, 1.0)

    def test_single_phase_far_below_the_curve(self):
        # 4 beta K underflowed to 0 and K(beta)/K - 1 divided by it
        for beta, kappa in ((1e-300, 1e-300), (5e-324, 1e-300), (BETA_MAX, 1e-300)):
            assert min_free_energy(ModelParams(beta, kappa)) == (0.0, 0.0)

    @pytest.mark.parametrize("beta, kappa_over_k", [
        (1.0, 1.0 + 1e-6), (1.0, 1.3), (BETA_C + 1e-3, 1.0 - 1e-9), (2.0, 0.999),
        (2.0, 0.98), (2.0, 1.1), (2.0, 0.5), (10.0, 0.5)])
    def test_descent_from_any_start(self, beta, kappa_over_k):
        # the descent in s finds the outer root, or none, from any start below
        # (2 beta K)^2: above beta_c and below K(beta) the series start could
        # sit at the inner root, or below the level where rho still rises
        params = ModelParams(beta, second_order_k(beta) * kappa_over_k)
        tilt = Tilt(beta)
        rho_k = tilt.spinodal_excess(params.kappa)
        s_right = (2.0 * beta * params.kappa) ** 2
        root = minimize._outer_tilt(params.kappa, tilt) ** 2
        for k in range(61):
            s = minimize._largest_root(tilt.secant_excess, rho_k, s_right * 10.0 ** (-k / 4),
                                       s_right, 1, tilt.s_rise)
            assert abs(s - root) <= 1e-14 * root, k


def _spinodal_points():
    """(beta, K) pairs: the grid ends, K(beta) +- 0..4 ulps, and 2,400 seeded
    points, a third each within 8 ulps of K(beta), within a factor 2 of it
    and anywhere in [1e-300, 1e300]."""
    betas = (5e-324, 1e-300, 1e-3, BETA_C, 20.0, BETA_MAX)
    points = [(b, k) for b in betas for k in (1e-300, 1e300)]
    for b in betas[1:]:
        for direction in (0.0, math.inf):
            k = second_order_k(b)
            for _ in range(5):
                points.append((b, k))
                k = math.nextafter(k, direction)
    rng = np.random.default_rng(17)
    for i in range(2400):
        b = (rng.uniform(0.05, 20.0) if i % 2 else
             math.exp(rng.uniform(math.log(1e-300), math.log(BETA_MAX))))
        k = second_order_k(b)
        if i % 3 == 0:
            for _ in range(int(rng.integers(9))):
                k = math.nextafter(k, math.inf if rng.random() < 0.5 else 0.0)
        elif i % 3 == 1:
            k *= rng.uniform(0.5, 2.0)
        else:
            k = math.exp(rng.uniform(math.log(1e-300), math.log(1e300)))
        if math.isfinite(k):
            points.append((b, k))
    return [(b, k) for b, k in points if 0.0 < 4.0 * b * k < math.inf]


class TestSpinodalExcess:
    def test_matches_the_exact_numerator(self):
        # the numerator is rounded once from exact integers: bit for bit the
        # 1200-bit one everywhere, and the 40-digit decimal one (the earlier
        # arithmetic) wherever 40 digits hold e^beta - 1 beside 3
        points = _spinodal_points()
        assert len(points) >= 2000
        for beta, kappa in points:
            den = 4.0 * beta * kappa
            got = Tilt(beta).spinodal_excess(kappa)
            assert got == spinodal_numerator_mp(beta, kappa) / den, (beta, kappa)
            if beta >= 1e-30:
                assert got == spinodal_numerator_decimal(beta, kappa) / den, (beta, kappa)

    def test_beyond_the_floats(self):
        # K(beta)/K below the floats is -1, above them inf
        assert Tilt(1.0).spinodal_excess(5e307) == -1.0
        assert Tilt(BETA_MAX).spinodal_excess(1e306) == -1.0
        assert Tilt(1e-300).spinodal_excess(1e-300) == math.inf
        assert Tilt(5e-324).spinodal_excess(1e-300) == math.inf

    def test_log2_literal(self):
        with mp.workdps(60):
            assert model._LN2 == int(mp.nint(mp.log(2) * mp.mpf(2) ** 136))


def _spinodal_excess_uncached(beta, kappa):
    """Tilt.spinodal_excess written out in one piece, e^beta series and all, with
    nothing kept between calls: the oracle of the Tilt cache."""
    den = 4.0 * beta * kappa
    if den == math.inf:
        return -1.0
    if den == 0.0:
        return math.inf
    bn, bd = beta.as_integer_ratio()
    kn, kd = kappa.as_integer_ratio()
    k = round(beta / math.log(2.0))
    r = ((bn << 136) // bd - k * model._LN2) >> 8
    term = exp_r = 1 << 128
    n = 0
    while term:
        n += 1
        term = (term * r >> 128) // n
        exp_r += term
    d = bd * kd
    num = (2 * ((exp_r << k) + (2 << 128)) + 1) * d - (bn * kn << 131)
    return num / (d << 129) / den


def _cache_points():
    """(beta, K) on a seeded grid: beta in [0.05, 20], beta_c +- 1e-6 and the
    integers 1..20, each as an int and as a float; at each beta K(beta), one
    ulp below it, K(beta) (1 + 1e-12) and four K within 20% of K(beta)."""
    rng = np.random.default_rng(30)
    betas = [*rng.uniform(0.05, 20.0, 120), BETA_C - 1e-6, BETA_C + 1e-6]
    betas += [b for i in range(1, 21) for b in (i, float(i))]
    points = []
    for b in betas:
        k = second_order_k(float(b))
        ks = [k, math.nextafter(k, 0.0), k * (1.0 + 1e-12), *k * rng.uniform(0.8, 1.2, 4)]
        points += [(b, float(kappa)) for kappa in ks]
    return points


class TestCurveCache:
    def test_cached_equals_uncached(self):
        # a kept Tilt is an uncached one, bit for bit, from a cold and from a
        # warm cache, and an int beta gives what the equal float gives
        def state(tilt):
            pairs = [f(s) for s in (0.0, 0.04, 0.81, 1.0, 9.0, 400.0)
                     for f in (tilt.depth, tilt.secant_excess)]
            return (tilt.beta, tilt.excess_series, tilt.s_rise, pairs)

        points = _cache_points()
        minimize._tilt.cache_clear()
        for warm in (False, True):
            for beta, kappa in points:
                kept = minimize._tilt(beta)
                assert state(kept) == state(Tilt(float(beta))), (beta, warm)
                assert state(kept) == state(minimize._tilt(float(beta))), beta
                got = kept.spinodal_excess(kappa)
                assert got == _spinodal_excess_uncached(float(beta), kappa), (beta, kappa, warm)
                assert got == Tilt(beta).spinodal_excess(kappa), (beta, kappa)
        assert minimize._tilt.cache_info().hits >= len(points)

    def test_one_series_per_beta(self):
        # classify's two probes and m at the same beta share one Tilt, and so
        # do the K1 descent and its confirming well tests
        params = ModelParams(2.0, 0.99 * first_order_k(2.0))
        minimize._tilt.cache_clear()
        assert classify(params) == PhaseRegion.SINGLE_PHASE
        assert magnetization(params) == 0.0
        info = minimize._tilt.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        minimize._tilt.cache_clear()
        first_order_k(2.5)
        info = minimize._tilt.cache_info()
        assert info.misses == 1 and info.hits >= 1

    def test_int_and_float_beta_share_one_tilt(self, monkeypatch):
        # ModelParams(1, K) and ModelParams(1.0, K) built two Tilts and two
        # gamma series: lru_cache keyed the int apart from the equal float
        built = []
        series = model._series_coefficients
        monkeypatch.setattr(model, "_series_coefficients",
                            lambda tilt: built.append(tilt) or series(tilt))
        kappa = second_order_k(1.0) + 1e-6   # small m: the tilt sits on the series
        minimize._tilt.cache_clear()
        assert magnetization(ModelParams(1, kappa)) == magnetization(ModelParams(1.0, kappa)) > 0
        info = minimize._tilt.cache_info()
        assert (info.misses, info.hits, len(built)) == (1, 1, 1)

    def test_bounded(self):
        minimize._tilt.cache_clear()
        for i in range(3 * minimize._TILT_CACHE_SIZE):
            magnetization(ModelParams(1.0 + i / 64.0, 1.0))
            assert minimize._tilt.cache_info().currsize <= minimize._TILT_CACHE_SIZE
        assert minimize._tilt.cache_info().maxsize == minimize._TILT_CACHE_SIZE == 64

    def test_threads_share_the_cache(self):
        # eight threads over one list with more beta than the cache holds, so
        # entries are added and evicted under each other, get the serial
        # answers; a short switch interval makes the threads interleave often
        rng = np.random.default_rng(31)
        betas = rng.uniform(BETA_C + 0.01, 6.0, 2 * minimize._TILT_CACHE_SIZE)
        points = [ModelParams(float(b), float(f * second_order_k(float(b))))
                  for b in betas for f in rng.uniform(0.85, 1.05, 3)]
        minimize._tilt.cache_clear()
        serial = [(classify(p), magnetization(p)) for p in points]
        minimize._tilt.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                shared = list(pool.map(lambda p: (classify(p), magnetization(p)), points,
                                       timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert shared == serial


class TestValidateOnce:
    def test_a_report_validates_its_spec_once(self, monkeypatch):
        # a report or check validates its spec once, in _points under its own
        # name, and params_at once per n; a view of the gate validates once
        calls = []
        validate = sequences.validate
        monkeypatch.setattr(sequences, "validate", lambda spec: calls.append(spec) or
                            validate(spec))
        ns = [50, 100, 200]
        every, at_or_above = (SEQ1_BELOW, SEQ1_AT, SEQ1_ABOVE), (SEQ1_AT, SEQ1_ABOVE)
        table = {  # operation: (call on a spec, the specs it admits, validate calls)
            "run_thermo_asymptotics":
                (lambda spec: run_thermo_asymptotics(spec, ns), every, 1 + len(ns)),
            "run_finite_size_asymptotics":
                (lambda spec: run_finite_size_asymptotics(spec, ns), every, 1 + len(ns)),
            "estimator_comparison":
                (lambda spec: estimator_comparison(spec, ns), every, 1 + len(ns)),
            "mdp_rate_estimate":
                (lambda spec: mdp_rate_estimate(spec, 3.0, ns), [SEQ1_BELOW], 1 + len(ns)),
            "kappa_fluctuation_estimate":
                (lambda spec: kappa_fluctuation_estimate(spec, ns), [SEQ1_BELOW], 1 + len(ns)),
            "weak_limit_distance": (lambda spec: weak_limit_distance(spec, 100), at_or_above, 2),
            "check_hypothesis_iiia":
                (lambda spec: check_hypothesis_iiia(spec, 2.0, ns), every, 1 + len(ns)),
            "check_hypothesis_v":
                (lambda spec: check_hypothesis_v(spec, [1.0], ns), [SEQ1_ABOVE], 1 + len(ns)),
            "scaled_free_energy_table":
                (lambda spec: scaled_free_energy_table(spec, [1.0], ns), every, 1 + len(ns)),
            "coexistence_onset": (coexistence_onset, every, 1),
            "gl_polynomial": (gl_polynomial, every, 1),
            "g_tilde": (g_tilde, every, 1),
            "weak_limit_polynomial": (weak_limit_polynomial, at_or_above, 1),
        }
        counts = {}
        for op, (call, specs, _) in table.items():
            for spec in specs:
                calls.clear()
                call(spec)
                counts[op, spec.alpha] = len(calls)
        assert counts == {(op, spec.alpha): expected
                          for op, (_, specs, expected) in table.items() for spec in specs}


class TestThermoAsymptotics:
    def test_scaled_magnetization_converges(self):
        report = run_thermo_asymptotics(SEQ1_BELOW, [10**d for d in range(3, 8)])
        xb = report.constants.x_bar
        gaps = [abs(r.scaled_m / xb - 1) for r in report.rows]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert all(r.e_finite is None for r in report.rows)

    def test_nonzero_drift_matches_beta_distance_form(self):
        # for b != 0 the scaled column equals xbar |beta - beta_n|^theta to
        # leading order because |beta - beta_n| = n^-alpha exactly
        spec = SequenceSpec(kind="seq1", alpha=0.4, beta=1.0, b=1, k=1.0)
        report = run_thermo_asymptotics(spec, [10**6, 10**8])
        for row in report.rows:
            alt = row.m_thermo * abs(1.0 - row.beta_n) ** -0.5
            assert row.scaled_m == pytest.approx(alt, rel=1e-12)
        assert abs(report.rows[-1].scaled_m / report.constants.x_bar - 1) < 0.05

    def test_n_past_n_max(self):
        # the thermodynamic column builds no law, so N_MAX does not bound n
        row, = run_thermo_asymptotics(SEQ1_BELOW, [10**12]).rows
        assert row.n == 10**12 and row.m_thermo > 0


class TestFiniteSizeReports:
    def test_regime_constants(self):
        below = run_finite_size_asymptotics(SEQ1_BELOW, [50, 100])
        assert below.constants.regime is Regime.BELOW
        assert below.constants.x_bar is not None
        assert below.constants.y_bar is None and below.constants.z_bar is None

        at = run_finite_size_asymptotics(SEQ1_AT, [50, 100])
        assert at.constants.regime is Regime.AT
        assert at.constants.z_bar is not None and at.constants.y_bar is None

        above = run_finite_size_asymptotics(SEQ1_ABOVE, [50, 100])
        assert above.constants.regime is Regime.ABOVE
        assert above.constants.y_bar is not None and above.constants.z_bar is None

    def test_scaled_e_exponent_per_regime(self):
        n = 64
        below = run_finite_size_asymptotics(SEQ1_BELOW, [n]).rows[0]
        assert below.scaled_e == pytest.approx(n**0.15 * below.e_finite, rel=1e-14)
        above = run_finite_size_asymptotics(SEQ1_ABOVE, [n]).rows[0]
        assert above.scaled_e == pytest.approx(n**0.25 * above.e_finite, rel=1e-14)

    def test_row_sanity_envelope(self):
        report = run_finite_size_asymptotics(SEQ1_BELOW, [50, 100, 200])
        for r in report.rows:
            assert 0 <= r.m_thermo <= 1
            assert 0 <= r.e_finite <= 1
            assert r.m_thermo <= r.e_finite + 1

    def test_threads_do_not_change_output(self):
        serial = run_finite_size_asymptotics(SEQ1_BELOW, [50, 100, 200], threads=1)
        parallel = run_finite_size_asymptotics(SEQ1_BELOW, [50, 100, 200], threads=4)
        assert serial == parallel

    def test_monte_carlo_estimator_reproducible(self):
        a = run_finite_size_asymptotics(SEQ1_BELOW, [60, 120],
                                        estimator=Estimator.MONTE_CARLO,
                                        sweeps=400, seed=5)
        b = run_finite_size_asymptotics(SEQ1_BELOW, [60, 120],
                                        estimator=Estimator.MONTE_CARLO,
                                        sweeps=400, seed=5)
        assert a == b

    def test_exact_estimator_needs_budget(self):
        with pytest.raises(EnumerationLimitError,
                           match=f"^run_finite_size_asymptotics: n = {N_MAX + 1} "
                                 f"exceeds N_MAX"):
            run_finite_size_asymptotics(SEQ1_BELOW, [100, N_MAX + 1])

    def test_bound_checked_before_any_row(self, monkeypatch):
        def no_law(*args):
            raise AssertionError("a row ran before the bound was checked")
        monkeypatch.setattr(harness, "finite_size_law", no_law)
        with pytest.raises(EnumerationLimitError):
            run_finite_size_asymptotics(SEQ1_BELOW, [N_MAX + 1, 100])
        with pytest.raises(ValueError, match="^run_finite_size_asymptotics: n_list"):
            run_finite_size_asymptotics(SEQ1_BELOW, [])

    def test_large_n_needs_no_argument(self):
        # ten times the size limit the exact estimator once had by default
        row = run_finite_size_asymptotics(SEQ1_ABOVE, [10**5]).rows[0]
        assert 0 < row.m_thermo < row.e_finite < 1

    def test_seq2_below_regime_trends_to_xbar(self):
        # slow trend (corrections die like n^(-2 alpha)); the gap must shrink
        ell = second_order_k_deriv(1.0, 2) + 1.0
        spec = SequenceSpec(kind="seq2", alpha=0.2, beta=1.0, b=1, p=2, ell=ell)
        report = run_finite_size_asymptotics(spec, [250, 500, 1000, 2000])
        xb = report.constants.x_bar
        gaps = [abs(r.scaled_e - xb) for r in report.rows]
        assert gaps[-1] < gaps[0]
        assert report.constants.alpha0 == 0.25

    def test_seq4_case_d_carries_banner(self):
        ell_c = second_order_k_deriv(BETA_C, 2) - 5 / (4 * BETA_C)
        spec = SequenceSpec(kind="seq4", alpha=0.2, ell=ell_c,
                            ell_tilde=K1_THIRD_DERIV_AT_BETA_C + 1.0, case="d")
        report = run_finite_size_asymptotics(spec, [50, 100])
        assert report.constants.banner is not None
        assert report.constants.x_bar is None
        assert xbar(gl_polynomial(spec)[0]).minimum_set is MinimumSet.THREE_POINT


# operations that take n without the N_MAX bound, called with one n; these
# returned values for n = 100.5 or True, and run_thermo_asymptotics a row
CALL_WITH_N = {
    "run_thermo_asymptotics": lambda n: run_thermo_asymptotics(SEQ1_BELOW, [n]),
    "check_hypothesis_iiia": lambda n: check_hypothesis_iiia(SEQ1_BELOW, 2.0, [n]),
    "scaled_free_energy_table": lambda n: scaled_free_energy_table(SEQ1_BELOW, [1.0], [n]),
    "weak_limit_distance": lambda n: weak_limit_distance(SEQ1_ABOVE, n),
    "params_at": lambda n: params_at(SEQ1_BELOW, n),
    "hs_rhs": lambda n: hs_rhs(n, ModelParams(1.0, 1.5), 0.2, abs),
    # these two named finite_size_law and scaled_free_energy_table
    "hs_lhs": lambda n: hs_lhs(n, ModelParams(1.0, 1.5), 0.2, abs),
    "check_hypothesis_v": lambda n: check_hypothesis_v(SEQ1_ABOVE, [1.0], [n]),
}
# n = 0 of params_at and hs_rhs is a case of its own below
BAD_N_CASES = [(op, n) for op in CALL_WITH_N for n in (100.5, True, 0)
               if (op, n) not in (("params_at", 0), ("hs_rhs", 0))]


# Every real input: (op, call on the law, params and the value, a valid value
# that is an integer exact in float32). Each takes a finite Python int or float
# (numpy's float64 included) and no bool, string, None, numpy integer or
# float32; float32 parameters ran the solvers partly in single precision.
REAL_INPUTS = {
    "ModelParams-beta": ("ModelParams", lambda law, p, v: ModelParams(v, 1.5), 1.0),
    "ModelParams-kappa": ("ModelParams", lambda law, p, v: ModelParams(1.0, v), 1.0),
    "cumulant-beta": ("cumulant", lambda law, p, v: cumulant(v, 0.5), 1.0),
    "cumulant_deriv-beta": ("cumulant_deriv", lambda law, p, v: cumulant_deriv(v, 0.5, 1), 1.0),
    "cumulant_deriv-order": ("cumulant_deriv", lambda law, p, v: cumulant_deriv(1.0, 0.5, v),
                             1.0),
    "free_energy_deriv-order": ("free_energy_deriv",
                                lambda law, p, v: free_energy_deriv(p, 0.5, v), 1.0),
    "Tilt-beta": ("Tilt", lambda law, p, v: Tilt(v).depth(0.25), 1.0),
    "second_order_k-beta": ("second_order_k", lambda law, p, v: second_order_k(v), 1.0),
    "second_order_k_deriv-beta": ("second_order_k_deriv",
                                  lambda law, p, v: second_order_k_deriv(v, 2), 1.0),
    "first_order_k-beta": ("first_order_k", lambda law, p, v: first_order_k(v), 2.0),
    "abs_moment-power": ("abs_moment", lambda law, p, v: abs_moment(law, v), 2.0),
    "abs_moment-gamma": ("abs_moment", lambda law, p, v: abs_moment(law, 1.0, v), 0.0),
    "log_tail_mass-gamma": ("log_tail_mass", lambda law, p, v: log_tail_mass(law, v, 0.5), 0.0),
    "log_tail_mass-a": ("log_tail_mass", lambda law, p, v: log_tail_mass(law, 0.2, v), 1.0),
    "hs_lhs-gamma_bar": ("hs_lhs", lambda law, p, v: hs_lhs(20, p, v, abs), 0.0),
    "hs_rhs-gamma_bar": ("hs_rhs", lambda law, p, v: hs_rhs(20, p, v, abs), 0.0),
    "gaussian_mixture_expectation-sigma": (
        "gaussian_mixture_expectation",
        lambda law, p, v: gaussian_mixture_expectation(np.abs, [0.0], [1.0], v), 1.0),
    "EvenPolynomial-c2": ("EvenPolynomial", lambda law, p, v: EvenPolynomial(c2=v), 1.0),
    "EvenPolynomial-c6": ("EvenPolynomial", lambda law, p, v: EvenPolynomial(c6=v), 1.0),
    "check_hypothesis_iiia-radius": (
        "check_hypothesis_iiia", lambda law, p, v: check_hypothesis_iiia(SEQ1_BELOW, v, [100]),
        2.0),
    "mdp_rate_estimate-a": ("mdp_rate_estimate",
                            lambda law, p, v: mdp_rate_estimate(SEQ1_BELOW, v, [100]), 3.0),
    "verify_tricritical_conjectures-h": (
        "verify_tricritical_conjectures", lambda law, p, v: verify_tricritical_conjectures([v]),
        1.0),
    "SequenceSpec-beta": ("SequenceSpec", lambda law, p, v: SequenceSpec(
        kind="seq1", alpha=0.3, beta=v, b=0, k=1.0), 1.0),
    "SequenceSpec-k": ("SequenceSpec", lambda law, p, v: SequenceSpec(
        kind="seq1", alpha=0.3, beta=1.0, b=0, k=v), 1.0),
    "SequenceSpec-ell_tilde": ("SequenceSpec", lambda law, p, v: SequenceSpec(
        kind="seq4", alpha=0.2, ell=1.0, ell_tilde=v, case="a"), 1.0),
}
# Every integer input: (op, call on the law, params and the value, a valid
# value, whether None is the default). Each takes a Python or numpy integer and
# no bool, float, string or float array; a 0-d float array raised a bare TypeError.
INT_INPUTS = {
    "second_order_k_deriv-order": ("second_order_k_deriv",
                                   lambda law, p, v: second_order_k_deriv(1.0, v), 2, False),
    "finite_size_law-n": ("finite_size_law", lambda law, p, v: finite_size_law(v, p), 20, False),
    "params_at-n": ("params_at", lambda law, p, v: params_at(SEQ1_BELOW, v), 100, False),
    "hs_rhs-n": ("hs_rhs", lambda law, p, v: hs_rhs(v, p, 0.2, abs), 20, False),
    "run_thermo_asymptotics-n": (
        "run_thermo_asymptotics", lambda law, p, v: run_thermo_asymptotics(SEQ1_BELOW, [v]),
        100, False),
    "mc_estimate-n": ("mc_estimate", lambda law, p, v: mc_estimate(v, p, 20), 20, False),
    "mc_estimate-sweeps": ("mc_estimate", lambda law, p, v: mc_estimate(20, p, v), 20, False),
    "mc_estimate-burn_in": ("mc_estimate", lambda law, p, v: mc_estimate(20, p, 20, burn_in=v),
                            2, True),
    "mc_estimate-seed": ("mc_estimate", lambda law, p, v: mc_estimate(20, p, 20, seed=v),
                         3, False),
    "SequenceSpec-b": ("SequenceSpec", lambda law, p, v: SequenceSpec(
        kind="seq1", alpha=0.3, beta=1.0, b=v, k=1.0), 1, False),
    "SequenceSpec-p": ("SequenceSpec", lambda law, p, v: SequenceSpec(
        kind="seq6", alpha=0.3, p=v, ell=-10.0), 3, False),
}
BAD_NUMBERS = [  # (id, op, call, value)
    *[(f"{key}:{value!r}", op, call, value) for key, (op, call, ok) in REAL_INPUTS.items()
      for value in (True, False, str(ok), None, np.float32(ok), np.int64(ok))],
    *[(f"{key}:{value!r}", op, call, value) for key, (op, call, ok, none_ok) in INT_INPUTS.items()
      for value in (True, str(ok), float(ok), np.array(float(ok)),
                    *(() if none_ok else (None,)))],
]


@pytest.mark.parametrize("op, call", [
    ("abs_moment", lambda law, p: abs_moment(law, 0.0)),
    ("abs_moment", lambda law, p: abs_moment(law, 1.0, 1.0)),
    # an infinite power returned 0.0 with a RuntimeWarning
    ("abs_moment", lambda law, p: abs_moment(law, math.inf)),
    # gamma = 2 used to give a tail mass near 1 and gamma = -1 a mass of 0
    ("log_tail_mass", lambda law, p: log_tail_mass(law, 2.0, 0.5)),
    ("log_tail_mass", lambda law, p: log_tail_mass(law, -1.0, 0.5)),
    ("log_tail_mass", lambda law, p: log_tail_mass(law, 1.0, 0.5)),
    ("log_tail_mass", lambda law, p: log_tail_mass(law, math.nan, 0.5)),
    ("log_tail_mass", lambda law, p: log_tail_mass(law, 0.2, -0.1)),
    ("log_tail_mass", lambda law, p: log_tail_mass(law, 0.2, math.nan)),
    # a non-integer n failed in slicing or in numpy with a bare TypeError, and
    # n = True gave a law whose n was True
    ("finite_size_law", lambda law, p: finite_size_law(2.5, p)),
    ("finite_size_law", lambda law, p: finite_size_law(3.0, p)),
    ("finite_size_law", lambda law, p: finite_size_law(True, p)),
    ("mc_estimate", lambda law, p: mc_estimate(2.5, p, 20)),
    # numpy raised these: a TypeError for 20.5 sweeps, "expected non-negative
    # integer" for a negative seed
    ("mc_estimate", lambda law, p: mc_estimate(50, p, 20.5)),
    ("mc_estimate", lambda law, p: mc_estimate(50, p, 20, burn_in=True)),
    ("mc_estimate", lambda law, p: mc_estimate(50, p, 20, burn_in=1.5)),
    ("mc_estimate", lambda law, p: mc_estimate(50, p, 20, seed=-1)),
    ("mc_estimate", lambda law, p: mc_estimate(50, p, 20, seed=2.0)),
    ("run_finite_size_asymptotics",
     lambda law, p: run_finite_size_asymptotics(SEQ1_BELOW, [100.5])),
    ("hs_lhs", lambda law, p: hs_lhs(20, p, 1.0, abs)),
    ("hs_rhs", lambda law, p: hs_rhs(20, p, -0.1, abs)),
    # n = 0 raised ZeroDivisionError, n = -5 a TypeError about complex numbers
    ("hs_rhs", lambda law, p: hs_rhs(0, p, 0.2, abs)),
    ("hs_rhs", lambda law, p: hs_rhs(-5, p, 0.2, abs)),
    ("params_at", lambda law, p: params_at(SEQ1_BELOW, 0)),
    ("params_at", lambda law, p: params_at(SEQ1_ZERO_K, 10)),
    ("gl_polynomial", lambda law, p: gl_polynomial(SEQ1_ZERO_K)),
    ("coexistence_onset", lambda law, p: coexistence_onset(SEQ1_ZERO_K)),
    ("scaled_free_energy_table",
     lambda law, p: scaled_free_energy_table(SEQ1_ZERO_K, [1.0], [100])),
    ("check_hypothesis_iiia", lambda law, p: check_hypothesis_iiia(SEQ1_BELOW, 0.0, [100])),
    # a nan or inf radius failed in free_energy after numpy RuntimeWarnings
    ("check_hypothesis_iiia",
     lambda law, p: check_hypothesis_iiia(SEQ1_BELOW, math.nan, [100])),
    ("check_hypothesis_iiia",
     lambda law, p: check_hypothesis_iiia(SEQ1_BELOW, math.inf, [100])),
    ("check_hypothesis_v", lambda law, p: check_hypothesis_v(SEQ1_BELOW, [1.0], [100])),
    ("g_tilde", lambda law, p: g_tilde(SequenceSpec(
        kind="seq6", alpha=0.3, p=3, ell=second_order_k_deriv(BETA_C, 3) - 6.0))),
    ("mdp_rate_estimate", lambda law, p: mdp_rate_estimate(SEQ1_ABOVE, 3.0, [100])),
    ("mdp_rate_estimate", lambda law, p: mdp_rate_estimate(SEQ1_BELOW, 0.5, [100])),
    # a = inf gave a nan target, a = nan failed in log_tail_mass
    ("mdp_rate_estimate", lambda law, p: mdp_rate_estimate(SEQ1_BELOW, math.inf, [100])),
    ("mdp_rate_estimate", lambda law, p: mdp_rate_estimate(SEQ1_BELOW, math.nan, [100])),
    ("kappa_fluctuation_estimate",
     lambda law, p: kappa_fluctuation_estimate(SEQ1_ABOVE, [100, 200])),
    # one n used to give a fitted slope and only a RankWarning
    ("kappa_fluctuation_estimate", lambda law, p: kappa_fluctuation_estimate(SEQ1_BELOW, [100])),
    ("weak_limit_distance", lambda law, p: weak_limit_distance(SEQ1_BELOW, 100)),
    ("estimator_comparison",
     lambda law, p: estimator_comparison(ModelParams(1.0, 1.0), [100])),
    # an empty list returned an empty report, and these three an empty list
    ("run_thermo_asymptotics", lambda law, p: run_thermo_asymptotics(SEQ1_BELOW, [])),
    ("check_hypothesis_iiia", lambda law, p: check_hypothesis_iiia(SEQ1_BELOW, 2.0, [])),
    ("check_hypothesis_v", lambda law, p: check_hypothesis_v(SEQ1_ABOVE, [1.0], [])),
    ("scaled_free_energy_table", lambda law, p: scaled_free_energy_table(SEQ1_ABOVE, [1.0], [])),
    # these eight raised without the operation's name
    ("aitken_limit", lambda law, p: aitken_limit([1.0, 2.0])),
    ("verify_tricritical_conjectures",
     lambda law, p: verify_tricritical_conjectures((1e-3, 1e-2))),
    ("second_order_k_deriv", lambda law, p: second_order_k_deriv(1.0, 0)),
    ("second_order_k_deriv", lambda law, p: second_order_k_deriv(1.0, 13)),
    ("cumulant_deriv", lambda law, p: cumulant_deriv(1.0, 0.0, 3)),
    ("free_energy_deriv", lambda law, p: free_energy_deriv(p, 0.5, 3)),
    ("gaussian_mixture_expectation",
     lambda law, p: gaussian_mixture_expectation(np.abs, [0.0], [1.0], 0.0)),
    # 1/3 is no quadrature node; the error is a QuadratureError
    ("weighted_ratio", lambda law, p: weighted_ratio(lambda x: 1.0 / abs(x - 1.0 / 3.0),
                                                     EvenPolynomial(c2=1.0))),
    # n^(alpha/alpha0) = 10^480 raised a bare OverflowError
    ("check_hypothesis_iiia", lambda law, p: check_hypothesis_iiia(SEQ1_ABOVE, 2.0, [10**300])),
    *[(op, lambda law, p, op=op, n=n: CALL_WITH_N[op](n)) for op, n in BAD_N_CASES],
    # float(n) raised a bare OverflowError
    *[(op, lambda law, p, op=op: CALL_WITH_N[op](2**1024)) for op in CALL_WITH_N],
    *[(op, lambda law, p, call=call, value=value: call(law, p, value))
      for _, op, call, value in BAD_NUMBERS],
], ids=["abs_moment-power", "abs_moment-gamma", "abs_moment-power=inf",
        "log_tail_mass-gamma=2", "log_tail_mass-gamma=-1", "log_tail_mass-gamma=1",
        "log_tail_mass-gamma=nan", "log_tail_mass-a", "log_tail_mass-a=nan",
        "finite_size_law-n=2.5", "finite_size_law-n=3.0", "finite_size_law-n=True",
        "mc_estimate-n=2.5", "mc_estimate-sweeps=20.5", "mc_estimate-burn_in=True",
        "mc_estimate-burn_in=1.5", "mc_estimate-seed=-1", "mc_estimate-seed=2.0",
        "run_finite_size_asymptotics-n=100.5",
        "hs_lhs", "hs_rhs", "hs_rhs-n=0", "hs_rhs-n=-5", "params_at", "params_at-invalid-spec",
        "gl_polynomial-invalid-spec", "coexistence_onset-invalid-spec",
        "scaled_free_energy_table-invalid-spec", "check_hypothesis_iiia-radius",
        "check_hypothesis_iiia-radius=nan", "check_hypothesis_iiia-radius=inf",
        "check_hypothesis_v-slow-speed", "g_tilde-seq6", "mdp_rate_estimate-fast-speed",
        "mdp_rate_estimate-a-below-xbar", "mdp_rate_estimate-a=inf", "mdp_rate_estimate-a=nan",
        "kappa_fluctuation_estimate-fast-speed",
        "kappa_fluctuation_estimate-one-n", "weak_limit_distance-below",
        "estimator_comparison", "run_thermo_asymptotics-empty", "check_hypothesis_iiia-empty",
        "check_hypothesis_v-empty", "scaled_free_energy_table-empty",
        "aitken_limit-two-values", "verify_tricritical_conjectures-increasing",
        "second_order_k_deriv-order=0", "second_order_k_deriv-order=13",
        "cumulant_deriv-order", "free_energy_deriv-order", "gaussian_mixture_expectation",
        "weighted_ratio-no-convergence", "check_hypothesis_iiia-n^speed-overflows",
        *[f"{op}-n={n}" for op, n in BAD_N_CASES], *[f"{op}-n=2^1024" for op in CALL_WITH_N],
        *[case[0] for case in BAD_NUMBERS]])
def test_input_errors_name_the_operation(op, call):
    params = ModelParams(1.0, 1.5)
    with pytest.raises(QuadratureError if op == "weighted_ratio" else ValueError,
                       match=f"^{op}: "):
        call(finite_size_law(20, params), params)


@pytest.mark.parametrize("key", [*REAL_INPUTS, *INT_INPUTS])
def test_numpy_numbers_give_the_python_answer(key):
    # a numpy float64 at a real input and a numpy integer at an integer input
    # give the answer of the Python number to the bit; a numpy integer was
    # refused as p, b and the K-derivative order, and kept as sweeps and seed
    if key in REAL_INPUTS:
        call, ok = REAL_INPUTS[key][1:]
        values = (ok, int(ok), np.float64(ok))
    else:
        call, ok = INT_INPUTS[key][1:3]
        values = (ok, np.int64(ok), np.int32(ok))
    params = ModelParams(1.0, 1.5)
    law = finite_size_law(20, params)
    got = [call(law, params, v) for v in values]
    assert all(g == got[0] for g in got[1:]), got
    if isinstance(got[0], float):
        assert all(g.hex() == got[0].hex() for g in got[1:]), got


def test_numpy_integers_are_held_as_python_ints():
    # these were numpy integers, which json refuses
    spec = SequenceSpec(kind="seq6", alpha=0.3, p=np.int64(3), ell=-10.0)
    assert type(spec.p) is int
    assert sequences.spec_to_json(spec) == sequences.spec_to_json(
        SequenceSpec(kind="seq6", alpha=0.3, p=3, ell=-10.0))
    est = mc_estimate(np.int64(20), ModelParams(1.0, 1.5), sweeps=np.int64(40),
                      burn_in=np.int32(4), seed=np.int64(3))
    assert est == mc_estimate(20, ModelParams(1.0, 1.5), 40, burn_in=4, seed=3)
    assert (type(est.sweeps), type(est.seed)) == (int, int)
    json.dumps(dataclasses.asdict(est))


def test_n_up_to_the_largest_float():
    # n runs up to the largest float; one past it fails naming the operation
    n = int(sys.float_info.max)
    assert params_at(SEQ1_BELOW, n) == ModelParams(1.0, second_order_k(1.0))
    with pytest.raises(ValueError, match=r"^params_at: n must be at most the largest float, "
                                         r"got 10\^308\.255$"):
        params_at(SEQ1_BELOW, n + 1)


SPEC_FIRST = {  # operation: its call on a spec, which checks the spec before anything else
    "run_thermo_asymptotics": lambda spec: run_thermo_asymptotics(spec, [100]),
    "run_finite_size_asymptotics": lambda spec: run_finite_size_asymptotics(spec, [100]),
    "estimator_comparison": lambda spec: estimator_comparison(spec, [100]),
    "mdp_rate_estimate": lambda spec: mdp_rate_estimate(spec, 3.0, [100]),
    "weak_limit_distance": lambda spec: weak_limit_distance(spec, 100),
    "kappa_fluctuation_estimate": lambda spec: kappa_fluctuation_estimate(spec, [100, 200]),
    "check_hypothesis_iiia": lambda spec: check_hypothesis_iiia(spec, 2.0, [100]),
    "check_hypothesis_v": lambda spec: check_hypothesis_v(spec, [1.0], [100]),
    "g_tilde": g_tilde,
    "weak_limit_polynomial": weak_limit_polynomial,
}


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("op", SPEC_FIRST)
def test_invalid_spec_names_the_operation(op, alpha):
    # each named gl_polynomial, which it called before checking its points;
    # the spec check comes first in every regime, before the regime's own
    with pytest.raises(SpecValidationError, match=f"^{op}: violated: k nonzero"):
        SPEC_FIRST[op](SequenceSpec(kind="seq1", alpha=alpha, beta=1.0, b=1, k=0.0))


@pytest.mark.parametrize("n_list", [[100.5], [True, 100], [0, 100], [100, N_MAX + 1], []])
@pytest.mark.parametrize("op, call", [
    ("mdp_rate_estimate", lambda ns: mdp_rate_estimate(SEQ1_BELOW, 3.0, ns)),
    ("kappa_fluctuation_estimate", lambda ns: kappa_fluctuation_estimate(SEQ1_BELOW, ns)),
    ("estimator_comparison", lambda ns: estimator_comparison(ModelParams(1.0, 1.5), ns)),
    ("estimator_comparison", lambda ns: estimator_comparison(SEQ1_BELOW, ns)),
    ("run_finite_size_asymptotics", lambda ns: run_finite_size_asymptotics(SEQ1_BELOW, ns))],
    ids=["mdp_rate_estimate", "kappa_fluctuation_estimate", "estimator_comparison",
         "estimator_comparison-spec", "run_finite_size_asymptotics"])
def test_n_list_errors_name_the_operation(op, call, n_list):
    # the first three named finite_size_law, the first operation to check n,
    # and estimator_comparison on a spec named run_finite_size_asymptotics;
    # mdp_rate_estimate and estimator_comparison on a fixed point returned
    # nothing for an empty list
    with pytest.raises((ValueError, EnumerationLimitError), match=f"^{op}: n[ _]"):
        call(n_list)


REGIME_RESTRICTED = {  # operation: (call on a spec, the regimes it accepts)
    "mdp_rate_estimate": (lambda spec: mdp_rate_estimate(spec, 3.0, [100]), ("below",)),
    "kappa_fluctuation_estimate":
        (lambda spec: kappa_fluctuation_estimate(spec, [100, 200]), ("below",)),
    "check_hypothesis_v": (lambda spec: check_hypothesis_v(spec, [1.0], [100]), ("above",)),
    "weak_limit_distance": (lambda spec: weak_limit_distance(spec, 100), ("at", "above")),
    "weak_limit_polynomial": (weak_limit_polynomial, ("at", "above")),
}


@pytest.mark.parametrize("op, regime", [
    (op, regime) for op, (_, accepted) in REGIME_RESTRICTED.items()
    for regime in ("below", "at", "above") if regime not in accepted])
def test_regime_errors_name_the_operation(op, regime):
    call, accepted = REGIME_RESTRICTED[op]
    spec = {"below": SEQ1_BELOW, "at": SEQ1_AT, "above": SEQ1_ABOVE}[regime]
    with pytest.raises(ValueError, match=(f"^{op}: requires alpha {' or '.join(accepted)} "
                                          r"alpha0 = 0\.5 \(tolerance 1e-12\), got ")):
        call(spec)


SEQ6_ABOVE = SequenceSpec(kind="seq6", alpha=0.3, p=3, ell=second_order_k_deriv(BETA_C, 3) - 6.0)
SEQ6_REJECTED = {  # operation: its call on a spec; seq6 has no g~ above alpha0 = 1/5
    "estimator_comparison": lambda spec: estimator_comparison(spec, [50, 100]),
    "run_finite_size_asymptotics": lambda spec: run_finite_size_asymptotics(spec, [50, 100]),
    "run_thermo_asymptotics": lambda spec: run_thermo_asymptotics(spec, [50, 100]),
    "weak_limit_distance": lambda spec: weak_limit_distance(spec, 100),
    "weak_limit_polynomial": weak_limit_polynomial,
    "check_hypothesis_v": lambda spec: check_hypothesis_v(spec, [1.0], [100]),
    "g_tilde": g_tilde,
}


@pytest.mark.parametrize("op", SEQ6_REJECTED)
def test_seq6_above_threshold_errors_name_the_operation(op):
    # check_hypothesis_v failed under g_tilde's name
    with pytest.raises(UnsupportedSequenceError,
                       match=f"^{op}: seq6 has no coercive high-order limit polynomial: "):
        SEQ6_REJECTED[op](SEQ6_ABOVE)


class TestEstimatorComparison:
    def test_fixed_point_ratio_tends_to_one(self):
        rows = estimator_comparison(ModelParams(1.0, 1.5), [100, 200, 400, 800])
        ratios = [r for _, r in rows]
        assert abs(ratios[-1] - 1) < abs(ratios[0] - 1)
        assert abs(ratios[-1] - 1) < 0.05

    def test_fixed_point_requires_coexistence(self):
        with pytest.raises(ValueError, match="coexistence"):
            estimator_comparison(ModelParams(1.0, 1.0), [100])

    def test_rejects_seq6_above_threshold(self):
        # seq6 has no limit density above alpha0 = 1/5: each report fails
        # under its own name
        spec = SequenceSpec(kind="seq6", alpha=0.3, p=3,
                            ell=second_order_k_deriv(BETA_C, 3) - 6.0)
        for report in (estimator_comparison, run_finite_size_asymptotics,
                       run_thermo_asymptotics):
            with pytest.raises(UnsupportedSequenceError, match=f"^{report.__name__}: seq6"):
                report(spec, [50, 100])

    def test_sequence_outside_coexistence_named(self):
        # seq5 at alpha = 1/4 starts outside coexistence: m(beta_1, K_1) = 0
        spec = SequenceSpec(kind="seq5", alpha=0.25,
                            ell=second_order_k_deriv(BETA_C, 2) + 1.0)
        with pytest.raises(ValueError, match="^estimator_comparison: .* n = 1,"):
            estimator_comparison(spec, [1, 2, 4])

    def test_below_threshold_ratio_approaches_one(self):
        rows = estimator_comparison(SEQ1_BELOW, [250, 1000, 4000])
        assert abs(rows[-1][1] - 1) < abs(rows[0][1] - 1)

    def test_above_threshold_ratio_grows(self):
        rows = estimator_comparison(SEQ1_ABOVE, [250, 1000, 4000])
        ratios = [r for _, r in rows]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))


class TestMdpRateEstimate:
    def test_rejects_threshold_below_xbar(self):
        g, _ = gl_polynomial(SEQ1_BELOW)
        xb = xbar(g).value
        with pytest.raises(ValueError, match="xbar"):
            mdp_rate_estimate(SEQ1_BELOW, xb - 0.1, [100])

    def test_rejects_fast_speed(self):
        with pytest.raises(ValueError, match="alpha"):
            mdp_rate_estimate(SEQ1_ABOVE, 3.0, [100])

    def test_target_grows_with_threshold(self):
        g, _ = gl_polynomial(SEQ1_BELOW)
        xb = xbar(g).value
        t1 = mdp_rate_estimate(SEQ1_BELOW, xb + 0.3, [100]).target
        t2 = mdp_rate_estimate(SEQ1_BELOW, xb + 0.6, [100]).target
        assert 0 < t1 < t2

    def test_rates_dominate_target(self):
        # the tail-decay bound direction: empirical rates sit at or above the
        # predicted rate for closed sets once the tail is resolvable
        spec = SequenceSpec(kind="seq1", alpha=0.25, beta=1.0, b=0, k=1.0)
        g, _ = gl_polynomial(spec)
        report = mdp_rate_estimate(spec, xbar(g).value + 0.5, [1000, 2000, 4000])
        for row in report.rows:
            assert row.saturated or row.rate_est >= report.target - 0.1

    def test_saturated_rows_flagged(self):
        spec = SequenceSpec(kind="seq1", alpha=0.25, beta=1.0, b=0, k=1.0)
        g, _ = gl_polynomial(spec)
        report = mdp_rate_estimate(spec, xbar(g).value + 0.5, [500])
        assert report.rows[0].saturated and report.rows[0].rate_est is None

    def test_deep_tail_carries_a_rate(self):
        # a = 3 < 16000^(1/8) = 3.36, so the tail is not empty; an e^-700
        # floor on P marked this row saturated
        spec = SequenceSpec(kind="seq1", alpha=0.25, beta=1.0, b=0, k=1.0)
        n, a = 16000, 3.0
        row, = mdp_rate_estimate(spec, a, [n]).rows
        log_p = log_tail_mass(finite_size_law(n, params_at(spec, n)), 0.125, a)
        assert -1700 < log_p < -700
        assert not row.saturated and row.rate_est == -log_p / n ** 0.5


# the four specs on which the smoothed-density distance is checked
WEAK_LIMIT_SPECS = {
    "seq1-above": SEQ1_ABOVE,
    "seq1-at": SequenceSpec(kind="seq1", alpha="1/2", beta=1.0, b=0, k=1.0),
    "seq3-above": SequenceSpec(kind="seq3", alpha=0.8, b=0, k=1.0),
    "seq5-at": SequenceSpec(kind="seq5", alpha="1/3",
                            ell=second_order_k_deriv(BETA_C, 2) + 1.0),
}


class TestWeakLimitDistance:
    def test_cdf_matches_scipy_bit_for_bit(self):
        from scipy.integrate import cumulative_trapezoid
        grid = np.linspace(-7.5, 7.5, 4001)
        for log_weight in (-grid**2, -0.3 * grid**4 + grid**2, -np.abs(grid)):
            y = np.exp(log_weight - np.max(log_weight))
            ref = cumulative_trapezoid(y, grid, initial=0.0)
            assert np.array_equal(harness._cdf(log_weight, grid), ref / ref[-1])

    @pytest.mark.parametrize("name", WEAK_LIMIT_SPECS)
    def test_matches_the_lattice_mixture(self, name):
        spec = WEAK_LIMIT_SPECS[name]
        for n in (250, 1000, 4000):
            assert abs(weak_limit_distance(spec, n) - mixture_distance(spec, n)) <= 3e-7

    @pytest.mark.parametrize("name", WEAK_LIMIT_SPECS)
    def test_falls_past_the_exact_law(self, name):
        dists = [weak_limit_distance(WEAK_LIMIT_SPECS[name], 10**e) for e in (4, 6, 8, 10, 12)]
        assert all(a > b for a, b in zip(dists, dists[1:]))

    def test_above_threshold_falls_like_the_speed_excess(self):
        # at alpha = 0.8 the distance falls like n^-(alpha - 1/2); a window cut
        # at n^(1/4) made the grid step O(1) past 10^14 and bent the trend
        dists = [weak_limit_distance(SEQ1_ABOVE, 10**e) for e in (8, 10, 12, 14, 16)]
        for a, b in zip(dists, dists[1:]):
            assert b / a == pytest.approx(10 ** (-2 * (SEQ1_ABOVE.alpha - 0.5)), rel=1e-2)

    def test_at_threshold_falls_like_root_n(self):
        # at alpha0 the distance falls like 0.81 n^(-1/2), to 8.1e-7 at 10^12
        assert weak_limit_distance(WEAK_LIMIT_SPECS["seq1-at"], 10**12) < 1e-5

    def test_distance_is_a_probability_metric_value(self):
        d = weak_limit_distance(SEQ1_ABOVE, 200)
        assert 0 <= d <= 1

    def test_rejects_slow_speed(self):
        with pytest.raises(ValueError, match="alpha"):
            weak_limit_distance(SEQ1_BELOW, 200)

    def test_convolved_cdf_at_origin_is_half(self):
        # symmetry of the lattice law and of the smoothing Gaussian
        n = 200
        params = params_at(SEQ1_ABOVE, n)
        law = finite_size_law(n, params)
        mu = law.support() / n**0.75
        sigma = (2 * params.beta * params.kappa) ** -0.5 / n**0.25
        cdf0 = float(np.sum(law.probabilities() * ndtr((0.0 - mu) / sigma)))
        assert cdf0 == pytest.approx(0.5, abs=1e-12)

    def test_at_threshold_uses_full_polynomial(self):
        # the At target has a quadratic well at +-xbar, so its distance
        # profile differs from the Above target; both must be small-ish and
        # internally consistent rather than equal
        d_at = weak_limit_distance(SEQ1_AT, 400)
        d_above = weak_limit_distance(SEQ1_ABOVE, 400)
        assert d_at != d_above
        assert d_at < 0.2 and d_above < 0.2


class TestKappaFluctuationEstimate:
    def test_reports_both_exponents(self):
        fit = kappa_fluctuation_estimate(SEQ1_BELOW, [250, 500, 1000, 2000])
        assert fit.conjectured_kappa == pytest.approx(0.35)
        assert math.isfinite(fit.fitted_exponent)
        assert fit.fitted_exponent > 0
        assert len(fit.rows) == 4

    def test_rejects_fast_speed(self):
        with pytest.raises(ValueError):
            kappa_fluctuation_estimate(SEQ1_ABOVE, [100, 200])
