"""Exact spin law against brute-force enumeration, moment and tail
operations, the Gaussian-smoothing oracle, and the Metropolis estimator."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from array import array

import mpmath as mp
import numpy as np
import pytest
from lattice_reference import (full_lattice_abs_moment, full_lattice_log_tail_mass,
                               integer_rho_law, reference_chain, temporary_acceptance_tables)
from mp_reference import log_spin_weight_mp, spin_law_mp

import bclab
from bclab import (BETA_C, N_MAX, EnumerationLimitError, ModelParams,
                   ScaledFreeEnergy, SequenceSpec, abs_moment, finite_size_law,
                   free_energy_deriv, g_tilde, gl_polynomial, hs_lhs, hs_rhs,
                   magnetization, mc_estimate, params_at, second_order_k, xbar)
from bclab.finite_size import log_tail_mass
from bclab.minimize import min_free_energy


def brute_force_law(n, params):
    """Direct summation of e^{-beta H} over all 3^n configurations."""
    weights = np.zeros(2 * n + 1)
    for config in itertools.product((-1, 0, 1), repeat=n):
        s = sum(config)
        h = sum(w * w for w in config) - params.kappa / n * s * s
        weights[s + n] += math.exp(-params.beta * h)
    return weights / weights.sum()


class TestFiniteSizeLaw:
    def test_single_spin(self):
        # beta = K = 1: -beta H = -beta(1 - K) w^2 = 0, all three states equal
        law = finite_size_law(1, ModelParams(1.0, 1.0))
        assert np.allclose(law.probabilities(), [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
        assert abs_moment(law) == pytest.approx(2 / 3, abs=1e-14)

    def test_two_spins(self):
        # 9 configurations: weights 1 (S = +-2), e^{-1/2} x2 (S = +-1),
        # 1 and e^{-2} x2 (S = 0)
        law = finite_size_law(2, ModelParams(1.0, 1.0))
        z = 3 + 4 * math.exp(-0.5) + 2 * math.exp(-2)
        assert abs_moment(law) == pytest.approx((2 + 2 * math.exp(-0.5)) / z, abs=1e-14)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(3):
            params = ModelParams(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
            for n in (2, 5, 8):
                law = finite_size_law(n, params)
                assert np.max(np.abs(law.probabilities()
                                     - brute_force_law(n, params))) < 1e-12

    def test_symmetry_and_normalization(self):
        for n in (1, 2, 3, 10, 100, 1000):
            law = finite_size_law(n, ModelParams(1.0, 1.5))
            assert np.array_equal(law.log_weights, law.log_weights[::-1])
            assert np.all(np.isfinite(law.log_weights))  # full lattice support
            assert math.fsum(law.probabilities()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5, 50, 200, 2000, 20000])
    def test_matches_mpmath(self, n):
        # the tolerance finite_size_law documents; n <= 200 against the direct
        # multinomial sum, beyond against the coefficient recurrence
        for beta, kappa in ((0.05, 15.3), (1.0, 1.2), (BETA_C, 1.1), (20.0, 1.0),
                             (20.0, 1.0000000001)):
            ref_log_p, ref_mean = spin_law_mp(n, beta, kappa)
            law = finite_size_law(n, ModelParams(beta, kappa))
            log_p = (law.log_weights - law.log_z)[n:]
            kept = np.asarray(ref_log_p) > math.log(1e-30)
            assert np.max(np.abs(log_p - ref_log_p)[kept]) <= 1e-12
            assert abs(abs_moment(law) - ref_mean) <= 1e-12 * ref_mean

    def test_matches_integer_recurrence_bit_for_bit(self):
        rng = np.random.default_rng(18)
        ns = [1, 2, 3, 20000] + [int(n) for n in np.exp(rng.uniform(0, math.log(20000), 40))]
        for n in ns:
            beta, kappa = rng.uniform(0.05, 20.0), rng.uniform(0.2, 3.0)
            law = finite_size_law(n, ModelParams(beta, kappa))
            log_weights, log_z = integer_rho_law(n, beta, kappa)
            assert np.array_equal(law.log_weights, log_weights) and law.log_z == log_z

    def test_linear_in_n(self):
        # a million spins, out of reach of an O(n^2) enumeration. Next to
        # K1(20) = 1.0000000001031 the modes s = 0 and s = +-n carry comparable
        # mass, p_s falls about e^6-fold a step away from each, and the
        # log-weight sums cross a valley 4.3e6 e-folds deep at s = n/2.
        n, beta, kappa = 10**6, 20.0, 1.0000000001
        law = finite_size_law(n, ModelParams(beta, kappa))
        assert np.all(np.isfinite(law.log_weights))
        assert np.array_equal(law.log_weights, law.log_weights[::-1])
        assert math.fsum(law.probabilities()) == pytest.approx(1.0, abs=1e-12)
        log_p = law.log_weights - law.log_z
        window = list(range(30)) + list(range(n - 29, n + 1))
        with mp.workdps(60):
            w = {s: log_spin_weight_mp(n, s, beta, kappa) for s in window + [n // 2]}
            top = max(w.values())
            # the weights fall from each mode into the one valley between,
            # so the mass left outside the windows is below n e^-100
            assert max(w[29], w[n - 29]) < top - 100
            log_z = mp.log(mp.exp(w[0]) + 2 * mp.fsum(mp.exp(w[s]) for s in window[1:]))
            ref = {s: float(x - log_z) for s, x in w.items()}
            ref_mean = float(2 * mp.fsum(s * mp.exp(w[s] - log_z) for s in window) / n)
        kept = [s for s in window if ref[s] > math.log(1e-30)]
        assert max(abs(log_p[n + s] - ref[s]) for s in kept) <= 1e-11
        assert abs(log_p[n + n // 2] - ref[n // 2]) <= 1e-15 * abs(ref[n // 2])
        assert abs(abs_moment(law) - ref_mean) <= 1e-11 * ref_mean

    def test_resource_limit(self):
        with pytest.raises(EnumerationLimitError,
                           match=f"^finite_size_law: n = {N_MAX + 1} exceeds "
                                 f"N_MAX = {N_MAX}.*113 B per n.*88 B per n"):
            finite_size_law(N_MAX + 1, ModelParams(1.0, 1.0))
        with pytest.raises(ValueError, match="^finite_size_law: n must be >= 1"):
            finite_size_law(0, ModelParams(1.0, 1.0))

    def test_numpy_int_n(self):
        params = ModelParams(1.0, 1.5)
        law = finite_size_law(np.int64(30), params)
        assert type(law.n) is int and law is finite_size_law(30, params)

    def test_memory_at_the_bound(self):
        # peak RSS growth over the import baseline, in a fresh interpreter so
        # no earlier test's peak hides it; measured about 113 B per n
        script = (
            "import resource\n"
            "from bclab import N_MAX, ModelParams, abs_moment, finite_size_law\n"
            "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "abs_moment(finite_size_law(N_MAX, ModelParams(1.0, 1.5)))\n"
            "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print((peak - base) * 1024)\n")  # ru_maxrss is in KiB on Linux
        src = os.path.dirname(os.path.dirname(bclab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert int(out) <= 256 * N_MAX

    def test_law_is_immutable_and_shareable(self):
        from concurrent.futures import ThreadPoolExecutor
        params = ModelParams(1.1, 1.4)
        with ThreadPoolExecutor(max_workers=6) as pool:
            laws = list(pool.map(lambda n: finite_size_law(n, params),
                                 [30, 60, 30, 60, 30, 60]))
        assert np.array_equal(laws[0].log_weights, laws[2].log_weights)
        with pytest.raises(ValueError):
            laws[0].log_weights[0] = 0.0


class TestLogSumExp:
    def test_matches_scipy_bit_for_bit(self):
        # log_z of ordered (two mirrored maxima) and disordered laws, and
        # arrays with repeated maxima
        from scipy.special import logsumexp
        arrays = [finite_size_law(n, params).log_weights
                  for n in (10, 1000, 5000)
                  for params in (ModelParams(1.0, 1.5), ModelParams(1.0, 1.0),
                                 ModelParams(2.0, 1.2))]
        rng = np.random.default_rng(7)
        for size in range(1, 200, 7):
            a = np.round(rng.normal(scale=20.0, size=size))
            arrays += [a, np.concatenate((a, a[::-1]))]
        for a in arrays:
            assert bclab.finite_size._logsumexp(a) == float(logsumexp(a))

    def test_matches_scipy_on_the_slices_readers_take(self):
        # the docstring's claim on law log weights as log_z and log_tail_mass
        # read them: the whole lattice, the half s >= 0 and s >= 1, and tails
        # s >= k, from ordered laws (two maxima at +-s) and disordered ones
        from scipy.special import logsumexp
        rng = np.random.default_rng(35)
        ns = [1, 2, 3, 20000] + [int(n) for n in np.exp(rng.uniform(0, math.log(20000), 10))]
        checked = 0
        for n in ns:
            for beta in (0.2, 1.0, BETA_C, 20.0):
                for kappa in (0.5 * second_order_k(beta), 1.5 * second_order_k(beta)):
                    w = finite_size_law(n, ModelParams(beta, kappa)).log_weights
                    ks = {0, 1, n // 3, n // 2, n, *rng.integers(0, n + 1, 2)}
                    for a in (w, *(w[n + k:] for k in ks)):
                        assert bclab.finite_size._logsumexp(a) == float(logsumexp(a)), (n, beta)
                        checked += 1
        assert checked > 500


class TestAbsMoment:
    def test_bounded_by_one(self):
        law = finite_size_law(50, ModelParams(1.0, 1.8))
        assert abs_moment(law, 1.0, 0.0) <= 1.0

    def test_jensen(self):
        law = finite_size_law(40, ModelParams(0.8, 1.2))
        assert abs_moment(law, 2.0, 0.0) >= abs_moment(law, 1.0, 0.0) ** 2

    def test_matches_full_lattice_sum_bit_for_bit(self):
        # the half-lattice sum, doubled, against the fsum over -n .. n
        rng = np.random.default_rng(19)
        ns = [1, 2, 3, 20000] + [int(n) for n in np.exp(rng.uniform(0, math.log(20000), 40))]
        for n in ns:
            law = finite_size_law(n, ModelParams(rng.uniform(0.05, 20.0), rng.uniform(0.2, 3.0)))
            for power, gamma in itertools.product((0.5, 1.0, 2.0), (0.0, 0.25)):
                assert abs_moment(law, power, gamma) == full_lattice_abs_moment(law, power, gamma)

    def test_rejects_bad_arguments(self):
        law = finite_size_law(5, ModelParams(1.0, 1.0))
        with pytest.raises(ValueError):
            abs_moment(law, 0.0)
        with pytest.raises(ValueError):
            abs_moment(law, 1.0, 1.0)


class TestLogTailMass:
    def test_boundary_values(self):
        law = finite_size_law(30, ModelParams(1.0, 1.5))
        assert log_tail_mass(law, 0.2, 0.0) == 0.0
        assert log_tail_mass(law, 0.2, 30.0**0.2 + 0.1) == -math.inf

    def test_monotone_in_threshold(self):
        law = finite_size_law(30, ModelParams(1.0, 1.5))
        values = [log_tail_mass(law, 0.0, a) for a in np.linspace(0, 1, 21)]
        assert all(x >= y for x, y in zip(values, values[1:]))

    def test_matches_full_lattice_mask(self):
        # the doubled half-lattice tail against the tail masked on -n .. n
        rng = np.random.default_rng(20)
        ns = [1, 2, 3, 20000] + [int(n) for n in np.exp(rng.uniform(0, math.log(20000), 40))]
        for n in ns:
            law = finite_size_law(n, ModelParams(rng.uniform(0.05, 20.0), rng.uniform(0.2, 3.0)))
            for gamma in (0.0, 0.25):
                ceiling = float(n) ** gamma
                for a in [0.0, 1e-300, ceiling, *rng.uniform(0.0, 1.1 * ceiling, 6)]:
                    got = log_tail_mass(law, gamma, a)
                    ref = full_lattice_log_tail_mass(law, gamma, a)
                    assert got == ref or abs(got - ref) <= 4e-15 * max(1.0, abs(ref))

    @pytest.mark.parametrize("n", [1, 2, 5, 50, 200, 2000])
    def test_matches_mpmath(self, n):
        # the tolerance log_tail_mass documents, against the tail of the
        # 50-digit law summed in mpmath
        for beta, kappa in ((0.05, 15.3), (1.0, 1.2), (BETA_C, 1.1), (20.0, 1.0),
                            (20.0, 1.0000000001)):
            law = finite_size_law(n, ModelParams(beta, kappa))
            with mp.workdps(30):
                p = [mp.exp(x) for x in spin_law_mp(n, beta, kappa)[0]]
                for gamma in (0.0, 0.25):
                    ceiling = float(n) ** gamma
                    for a in np.linspace(0.0, ceiling, 9)[1:]:
                        k = math.ceil(a * float(n) ** (1.0 - gamma))
                        ref = float(mp.log(2 * mp.fsum(p[k:])))
                        got = log_tail_mass(law, gamma, a)
                        assert got == ref or abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


def gaussian_bump(x):
    return np.exp(-np.asarray(x, dtype=float) ** 2)


class TestSmoothingIdentity:
    def test_normalization(self):
        one = lambda x: np.ones_like(np.asarray(x, dtype=float))
        params = ModelParams(1.0, 1.5)
        assert hs_lhs(20, params, 0.2, one) == pytest.approx(1.0, abs=1e-10)
        assert hs_rhs(20, params, 0.2, one) == pytest.approx(1.0, abs=1e-10)

    def test_odd_function_vanishes(self):
        params = ModelParams(1.0, 1.5)
        assert abs(hs_lhs(20, params, 0.2, np.tanh)) < 1e-10
        assert abs(hs_rhs(20, params, 0.2, np.tanh)) < 1e-10
        # past the exact law: the even weight is integrated on [0, cutoff]
        # against the even part of f; over [-cutoff, cutoff], rounding in
        # n G(y/n^gamma) left a numerator error of 1.3e-12 at 10^11 that
        # raised QuadratureError
        spec = SequenceSpec(kind="seq1", alpha=0.8, beta=1.0, b=0, k=1.0)
        for e in range(8, 13):
            assert hs_rhs(10**e, params_at(spec, 10**e), 0.25, np.tanh) == 0.0

    @pytest.mark.parametrize("n", [10, 50, 200])
    @pytest.mark.parametrize("gamma_bar", [0.0, 0.2, 0.4])
    def test_lhs_equals_rhs(self, n, gamma_bar):
        params = ModelParams(1.0, 1.5)
        cases = [
            (lambda x: np.minimum(np.abs(x), 1.0), (-1.0, 0.0, 1.0)),
            (lambda x: np.minimum(np.abs(x), 10.0), (-10.0, 0.0, 10.0)),
            (gaussian_bump, ()),
        ]
        for f, kinks in cases:
            lhs = hs_lhs(n, params, gamma_bar, f, kinks=kinks)
            rhs = hs_rhs(n, params, gamma_bar, f, kinks=kinks)
            assert lhs == pytest.approx(rhs, rel=1e-8)

    @pytest.mark.parametrize("n", [10**4, 10**5])
    @pytest.mark.parametrize("gamma_bar", [0.0, 0.2, 0.4])
    def test_lhs_equals_rhs_at_large_n(self, n, gamma_bar):
        params = ModelParams(1.0, 1.5)
        for f, kinks in ((lambda x: np.minimum(np.abs(x), 1.0), (-1.0, 0.0, 1.0)),
                         (np.abs, (0.0,))):
            lhs = hs_lhs(n, params, gamma_bar, f, kinks=kinks)
            rhs = hs_rhs(n, params, gamma_bar, f, kinks=kinks)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_lhs_equals_rhs_at_the_bound(self):
        # 24,098 lattice atoms, each with three kinks; measured 6e-16
        params, f = ModelParams(1.0, 1.5), lambda x: np.minimum(np.abs(x), 1.0)
        lhs = hs_lhs(N_MAX, params, 0.0, f, kinks=(-1.0, 0.0, 1.0))
        rhs = hs_rhs(N_MAX, params, 0.0, f, kinks=(-1.0, 0.0, 1.0))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_lhs_equals_rhs_between_grid_scalings(self):
        params = ModelParams(1.0, 1.5)
        f = lambda x: np.minimum(np.abs(x), 10.0)
        kinks = (-10.0, 0.0, 10.0)
        lhs = hs_lhs(50, params, 0.25, f, kinks=kinks)
        rhs = hs_rhs(50, params, 0.25, f, kinks=kinks)
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_weight_window_at_the_scaled_wells(self):
        # the contract of EvenPolynomial.weight_window at the outer well n^gb m,
        # with each well flanked 8 standard deviations out
        params, n, scale = ModelParams(1.0, 1.3), 10**8, 100.0
        phi = ScaledFreeEnergy(params, n, scale)
        floor, cutoff, points = phi.weight_window()
        outer = scale * magnetization(params)
        assert floor < 0 and floor == pytest.approx(n * min_free_energy(params)[0], rel=1e-12)
        # the first power of two past the outer well at 56.08, where the
        # weight is already below e^-60
        assert cutoff == 64.0 and cutoff / 2 < outer and phi(cutoff) >= floor + 60
        sigma = (n / scale**2 * free_energy_deriv(params, outer / scale, 2)) ** -0.5
        wells = sorted({-outer, outer, -outer - 8 * sigma, -outer + 8 * sigma,
                        outer - 8 * sigma, outer + 8 * sigma})
        assert sorted(set(points)) == pytest.approx(wells, rel=1e-12)

    def test_weight_window_far_above_the_curve(self):
        # at K = 1e17 > 1.8e16 K(beta) the outer tilt divided by 1 + rho_K = 0;
        # the well sits at the ordered limit y = scale
        phi = ScaledFreeEnergy(ModelParams(1.0, 1e17), 10**4, 10.0)
        floor, cutoff, points = phi.weight_window()
        assert floor == phi(10.0) < 0 and cutoff > 10.0
        assert {-10.0, 10.0} <= set(points) and all(math.isfinite(p) for p in points)

    def test_weight_window_where_two_beta_k_squared_overflows(self):
        # (2 beta K)^2 c'' raised OverflowError from 2 beta K = 1.3e154 on; the
        # origin's curvature is now -inf (no flank), the well's 2 beta K
        phi = ScaledFreeEnergy(ModelParams(1.0, 1e300), 10**4, 10.0)
        floor, cutoff, points = phi.weight_window()
        assert floor == phi(10.0) == pytest.approx(-1e304) and cutoff == 16.0
        assert set(points) == {-10.0, 10.0}

    @pytest.mark.parametrize("beta, kappa", [(1.0, 1.3), (1.0, 1.0), (2.0, 0.9),
                                             (1.2, 1.05), (0.5, 2.0), (3.0, 0.8)])
    def test_second_moment_scales_with_gamma_bar(self, beta, kappa):
        # y = n^gb x maps e^{-n G(x)} onto e^{-n G(y/n^gb)}, so the second
        # moment at gb is n^(2 gb) times the one at gb = 0, whatever the width
        # of the wells against the window (about 1e-4 n^gb at n = 10^8)
        params = ModelParams(beta, kappa)
        for n in (10**2, 10**4, 10**6, 10**8):
            base = hs_rhs(n, params, 0.0, np.square)
            for gamma_bar in (0.1, 0.2, 0.25, 0.4):
                scaled = hs_rhs(n, params, gamma_bar, np.square)
                assert scaled == pytest.approx(n ** (2 * gamma_bar) * base, rel=1e-9)

    @pytest.mark.parametrize("beta, kappa", [(1.0, 1.0), (3.0, 0.8)])
    def test_single_phase_second_moment_is_gaussian_to_order_one_over_n(self, beta, kappa):
        # one well at 0: n G''(0) E[y^2] = 1 + c/n, so the excess falls by 10^-2
        # over two decades of n; the well is about 1e-4 wide at n = 10^8
        params = ModelParams(beta, kappa)
        g2 = free_energy_deriv(params, 0.0, 2)
        excess = [n * g2 * hs_rhs(n, params, 0.0, np.square) - 1.0 for n in (10**6, 10**8)]
        assert excess[1] / excess[0] == pytest.approx(1e-2, rel=1e-2)

    def test_scaled_second_moment_past_the_exact_law(self):
        # seq1 at alpha = 0.8, gamma = 1/4: the smoothed second moment tends to
        # that of exp(-c4 y^4), Gamma(3/4)/(Gamma(1/4) sqrt(c4)) = 0.87674, with
        # a gap from the quadratic term n^(1/2 - alpha) y^2, so each decade of n
        # divides the gap by 10^(alpha - 1/2). A window cut at n^gamma let the
        # quadrature miss the O(1) peak from 10^13 on, where it read 1.4e-4.
        spec = SequenceSpec(kind="seq1", alpha=0.8, beta=1.0, b=0, k=1.0)
        limit = math.gamma(0.75) / math.gamma(0.25) / math.sqrt(g_tilde(spec).c4)
        gaps = [hs_rhs(10**e, params_at(spec, 10**e), 0.25, np.square) - limit
                for e in range(8, 16)]
        assert all(0 < b < a for a, b in zip(gaps, gaps[1:]))
        for a, b in zip(gaps, gaps[1:]):
            assert b / a == pytest.approx(10 ** -(spec.alpha - 0.5), rel=2e-2)
        assert gaps[-1] < 5e-4


class TestWeakLimitConcentration:
    def test_mass_concentrates_at_xbar(self):
        # below-threshold sequence: the scaled spin piles onto +-xbar
        spec = SequenceSpec(kind="seq1", alpha=0.3, beta=1.0, b=0, k=1.0)
        g, exps = gl_polynomial(spec)
        xb = xbar(g).value
        gamma = exps.theta * spec.alpha
        masses = []
        for n in (500, 1000, 2000, 4000):
            law = finite_size_law(n, params_at(spec, n))
            scaled = np.abs(law.support()) / n ** (1 - gamma)
            window = (scaled >= xb - 0.25) & (scaled <= xb + 0.25)
            masses.append(float(law.probabilities()[window].sum()))
        assert all(a < b for a, b in zip(masses, masses[1:]))
        assert masses[-1] > 0.8

    def test_scaled_moment_trends_to_xbar(self):
        spec = SequenceSpec(kind="seq1", alpha=0.3, beta=1.0, b=0, k=1.0)
        g, exps = gl_polynomial(spec)
        xb = xbar(g).value
        gamma = exps.theta * spec.alpha
        vals = [abs_moment(finite_size_law(n, params_at(spec, n)), 1.0, gamma)
                for n in (500, 1000, 2000, 4000)]
        gaps = [abs(v - xb) for v in vals]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


BENCH_POINT = ModelParams(1.0, second_order_k(1.0) + 0.4)   # bench/test_layers.py PARAMS
SEQ1 = SequenceSpec(kind="seq1", alpha=0.3, beta=1.0, b=0, k=1.0)
CHAIN_POINTS = {"bench": BENCH_POINT, "saturated": ModelParams(20.0, 1.5),
                "empty": ModelParams(20.0, 0.5), "weak": ModelParams(1.0, 1e-9)}


def _chain_cases():
    """(n, params) of the bit-identity grid: at n <= 50 the window's edges
    clamp to [0, n]; at 4000 and 2 10^4 the seq1 row joins the four points."""
    for n in (1, 2, 3, 4, 8, 50):
        for name, params in CHAIN_POINTS.items():
            yield pytest.param(n, params, id=f"{name}-n{n}")
    for n in (4000, 2 * 10**4):
        points = dict(CHAIN_POINTS, seq1=params_at(SEQ1, n))
        for name, params in points.items():
            yield pytest.param(n, params, id=f"{name}-n{n}")


class TestCertainRejections:
    """The pre-pass that sets aside the steps every state near the chain's
    state rejects leaves every decision of the chain as it was."""

    @pytest.mark.parametrize("n, params", _chain_cases())
    def test_equals_the_chain_that_visits_every_step(self, monkeypatch, n, params):
        fs = bclab.finite_size
        calls = []
        prepass = fs._uncertain_steps
        monkeypatch.setattr(fs, "_uncertain_steps", lambda *a: calls.append(1) or prepass(*a))
        for seed in (0, 7):
            assert mc_estimate(n, params, sweeps=40, seed=seed) == reference_chain(
                n, params, sweeps=40, seed=seed)
        # at least one pass a sweep: 40 sweeps and 4 of burn-in, two seeds
        assert len(calls) >= 2 * 44

    def test_walk_reports_reaching_the_window_edge(self):
        # every proposal accepted and every draw site 0, a +1 site: each step
        # moves +1 -> 0, so n_plus falls by one a step from 5
        n, half = 10, 3
        tables = [array("d", [1.0]) * (2 * n + 1) for _ in range(6)]
        draws, uniforms = array("q", [0] * 4), array("d", [0.5] * 4)
        walk_within = bclab.finite_size._walk_within
        assert walk_within(n, draws[:2], uniforms[:2], (5, 8), tables, half) == ((3, 8), 2)
        assert walk_within(n, draws[:3], uniforms[:3], (5, 8), tables, half) == ((2, 8), 3)
        assert walk_within(n, draws, uniforms, (5, 8), tables, half) == ((2, 8), 3)
        assert walk_within(n, draws[:0], uniforms[:0], (5, 8), tables, half) == ((5, 8), 0)
        assert bclab.finite_size._walk(n, draws, uniforms, 5, 8, tables) == (1, 8)

    def test_sweep_resumes_from_the_exit_state(self, monkeypatch):
        # a window held to a half-width of 2 is left in most sweeps; each time
        # a new pre-pass starts at the state where the walk left it, over the
        # steps from the first kept one not walked
        fs = bclab.finite_size
        n, params = 2 * 10**4, params_at(SEQ1, 2 * 10**4)
        prepass, walk_within = fs._uncertain_steps, fs._walk_within
        log = []

        def narrow_prepass(n, draws, uniforms, tables, start, half):
            log.append(("pre", start, len(draws)))
            return prepass(n, draws, uniforms, tables, start, 2)

        def narrow_walk(n, draws, uniforms, start, tables, half):
            state, walked = walk_within(n, draws, uniforms, start, tables, 2)
            log.append(("walk", start, state, walked < len(draws)))
            return state, walked

        monkeypatch.setattr(fs, "_uncertain_steps", narrow_prepass)
        monkeypatch.setattr(fs, "_walk_within", narrow_walk)
        assert mc_estimate(n, params, sweeps=20, seed=3) == reference_chain(
            n, params, sweeps=20, seed=3)
        exits = [i for i, entry in enumerate(log) if entry[0] == "walk" and entry[3]]
        assert len(exits) > 10
        for i in exits:
            (_, pre_start, before), (_, start, state, _) = log[i - 1], log[i]
            kind, resumed_at, left = log[i + 1]
            assert pre_start == start and kind == "pre" and resumed_at == state
            assert 0 < left < before
        assert all(entry[0] == "pre" for entry in log[::2])
        assert all(entry[0] == "walk" for entry in log[1::2])


class TestMonteCarlo:
    def test_deterministic(self):
        params = ModelParams(1.0, 1.5)
        a = mc_estimate(100, params, sweeps=500, seed=42)
        b = mc_estimate(100, params, sweeps=500, seed=42)
        assert a == b
        c = mc_estimate(100, params, sweeps=500, seed=43)
        assert c.mean != a.mean

    def test_agrees_with_exact_law(self):
        params = ModelParams(1.0, 1.5)
        est = mc_estimate(200, params, sweeps=20000, seed=7)
        exact = abs_moment(finite_size_law(200, params))
        assert abs(est.mean - exact) <= 4 * est.stderr
        assert est.stderr > 0

    def test_weak_coupling_limit(self):
        # K -> 0+ approaches the product measure; compare against the exact
        # law at K = 1e-9
        params = ModelParams(1.0, 1e-9)
        est = mc_estimate(100, params, sweeps=10000, seed=11)
        exact = abs_moment(finite_size_law(100, params))
        assert abs(est.mean - exact) <= 4 * est.stderr

    def test_small_systems_agree_with_exact_law(self):
        # at small n every move type is frequent, so an acceptance read from
        # the wrong move's table moves the mean by many standard errors
        for n, params in ((4, ModelParams(1.0, 1.5)), (8, ModelParams(0.3, 2.0))):
            est = mc_estimate(n, params, sweeps=40000, seed=3)
            exact = abs_moment(finite_size_law(n, params))
            assert abs(est.mean - exact) <= 4 * est.stderr

    def test_ordered_phase_at_benchmark_point(self):
        # the regime of the Metropolis benchmark: beta = 1, K = K(1) + 0.4,
        # where |S/n| sits near 0.82 and most proposals are rejected
        params = ModelParams(1.0, second_order_k(1.0) + 0.4)
        est = mc_estimate(2000, params, sweeps=300, seed=20261018)
        exact = abs_moment(finite_size_law(2000, params))
        assert abs(est.mean - exact) <= 6 * est.stderr
        assert est.stderr > 0

    def test_chains_start_in_the_well(self):
        # nothing discarded and few sweeps: chains started at S = 0 were
        # still relaxing toward the well and missed by 0.55 and 0.89 here
        for params in (ModelParams(1.0, second_order_k(1.0) + 0.4),
                       ModelParams(2.0, 1.3)):
            est = mc_estimate(2000, params, sweeps=20, burn_in=0, seed=1)
            exact = abs_moment(finite_size_law(2000, params))
            assert abs(est.mean - exact) <= 0.05

    def test_rejects_too_few_sweeps(self):
        with pytest.raises(ValueError, match="^mc_estimate: sweeps"):
            mc_estimate(10, ModelParams(1.0, 1.0), sweeps=10)

    def test_rejects_bad_size_and_burn_in(self):
        params = ModelParams(1.0, 1.0)
        for n in (0, -5):
            with pytest.raises(ValueError, match="^mc_estimate: n must be >= 1"):
                mc_estimate(n, params, sweeps=20)
        with pytest.raises(ValueError, match="^mc_estimate: burn_in must be >= 0"):
            mc_estimate(10, params, sweeps=20, burn_in=-3)
        assert mc_estimate(10, params, sweeps=20, burn_in=0).sweeps == 20

    def test_tables_match_the_temporary_form_bit_for_bit(self):
        rng = np.random.default_rng(20)
        for n in [1, 2, 3, 10000] + [int(n) for n in rng.integers(1, 20000, 20)]:
            beta, kappa = rng.uniform(0.05, 20.0), rng.uniform(0.2, 3.0)
            pairs = zip(bclab.finite_size._acceptance_tables(n, beta, kappa),
                        temporary_acceptance_tables(n, beta, kappa))
            assert all(a.tobytes() == b.tobytes() for a, b in pairs)

    @pytest.mark.parametrize("n, beta, kappa", [
        (1, 1.0, 1.5), (3, 20.0, 0.5), (10**4, 1.0, 1.5), (10**4, 0.1, 1e-6),
        (10**6, 0.05, 1e-9)])
    def test_tables_are_monotone_in_s_with_mirrored_views(self, n, beta, kappa):
        # the pre-pass reads a table's largest value over a range of S at one
        # end; at beta = 0.05, K = 1e-9, n = 10^6 the tables are nearly flat.
        # -1->0, -1->+1 and 0->-1 read +1->0, +1->-1 and 0->+1 reversed, as
        # views of those tables, not copies
        tables = bclab.finite_size._acceptance_tables(n, beta, kappa)
        for base, mirror in ((0, 2), (1, 3), (4, 5)):
            assert isinstance(tables[base], array) and tables[mirror].obj is tables[base]
        for i, table in enumerate(tables):
            steps = np.diff(np.asarray(table))
            assert np.all(steps >= 0) if i in (2, 3, 4) else np.all(steps <= 0)

    def test_tables_make_no_temporary_of_their_size(self):
        # the S grid and three tables; whole-array temporaries peaked at about
        # ten arrays of 2n + 1 floats
        n = 10**4
        tracemalloc.start()
        try:
            bclab.finite_size._acceptance_tables(n, 1.0, 1.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * 8 * (2 * n + 1)

    def test_chain_holds_its_tables_and_one_sweep(self):
        # the docstring's bound: 48 B per n of tables and at most 40 B per n of
        # one sweep's draws, uniforms and pre-pass temporaries; at n = 10^4
        # the call peaks at 84.1 B per n
        n = 10**4
        mc_estimate(n, BENCH_POINT, sweeps=20)
        tracemalloc.start()
        try:
            mc_estimate(n, BENCH_POINT, sweeps=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (48 + 40) * n

    def test_resource_limit(self):
        # bclab mc --n 10**8 used to build tables of about 16 GB before failing
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationLimitError,
                               match=f"^mc_estimate: n = {N_MAX + 1} exceeds "
                                     f"N_MAX = {N_MAX}.*113 B per n.*88 B per n"):
                mc_estimate(N_MAX + 1, ModelParams(1.0, 1.0), sweeps=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
