"""Closed-form cumulant and free-energy functional against independent oracles."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from mp_reference import DPS, cumulant_mp

from bclab import (BETA_C, ModelParams, cumulant, cumulant_deriv, first_order_k,
                   free_energy, free_energy_deriv, magnetization, minimize, model,
                   second_order_k)
from bclab.model import BETA_MAX, Tilt


def cumulant_reference(beta, t):
    # direct transcription of the defining closed form; no stabilization
    return math.log((1 + math.exp(-beta) * (math.exp(t) + math.exp(-t)))
                    / (1 + 2 * math.exp(-beta)))


def central_diff(fn, t, h):
    return (fn(t + h) - fn(t - h)) / (2 * h)


class TestModelParams:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ModelParams(0.0, 1.0)
        with pytest.raises(ValueError):
            ModelParams(1.0, -2.0)
        with pytest.raises(ValueError):
            ModelParams(math.nan, 1.0)

    @pytest.mark.parametrize("kappa", [-2.0, 0.0, math.nan, math.inf])
    def test_kappa_errors_name_the_constructor(self, kappa):
        with pytest.raises(ValueError, match="^ModelParams: kappa must be finite and > 0"):
            ModelParams(1.0, kappa)

    def test_beta_ceiling(self):
        # e^{-2 beta} leaves the normal floats at beta = 354.2; at (360, 2)
        # magnetization returned 0 where m is 1
        assert ModelParams(BETA_MAX, 2.0).beta == BETA_MAX
        for beta in (math.nextafter(BETA_MAX, math.inf), 360.0, 800.0):
            with pytest.raises(ValueError, match="ModelParams"):
                ModelParams(beta, 2.0)


class TestCumulant:
    def test_zero_at_origin(self):
        assert cumulant(1.0, 0.0) == 0.0

    def test_even_in_t(self):
        for beta in (0.3, 1.0, math.log(4), 2.5):
            for t in (0.1, 1.0, 7.0, 50.0, 300.0):
                assert cumulant(beta, t) == cumulant(beta, -t)

    def test_closed_form_at_beta_log4(self):
        # e^{-beta} = 1/4: c(1) = log((1 + (e + 1/e)/4) / (3/2))
        expected = math.log((1 + (math.e + 1 / math.e) / 4) / 1.5)
        assert cumulant(math.log(4), 1.0) == pytest.approx(expected, abs=1e-15)

    def test_matches_naive_form_on_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            beta = rng.uniform(0.1, 3.0)
            t = rng.uniform(-30.0, 30.0)
            assert cumulant(beta, t) == pytest.approx(
                cumulant_reference(beta, t), abs=1e-13)

    def test_stable_at_huge_argument(self):
        # naive evaluation overflows near t = 710; the factored form must not
        for t in (700.0, 5000.0, 1e8):
            val = cumulant(1.0, t)
            assert math.isfinite(val)
            assert val == pytest.approx(t - 1.0 - math.log(1 + 2 / math.e), rel=1e-12)

    def test_rejects_nonfinite(self):
        for t in (math.inf, np.array([0.5, math.nan])):
            with pytest.raises(ValueError, match="^cumulant: t must be finite"):
                cumulant(1.0, t)
        with pytest.raises(ValueError):
            cumulant(-1.0, 0.5)

    @pytest.mark.parametrize("name, call", [
        ("cumulant", lambda beta: cumulant(beta, 1.0)),
        ("cumulant", lambda beta: cumulant(beta, np.array([1.0]))),
        ("cumulant_deriv", lambda beta: cumulant_deriv(beta, 1.0, 2)),
        # the well depth f, its derivative f' and the secant excess rho come
        # from Tilt(beta) methods, so the constructor checks beta and names itself
        pytest.param("Tilt", lambda beta: Tilt(beta).depth(0.5)[0],
                     id="well_depth-<lambda>"),
        pytest.param("Tilt", lambda beta: Tilt(beta).secant_excess(4.0)[0],
                     id="secant_excess-<lambda>"),
        pytest.param("Tilt", lambda beta: Tilt(beta).depth(0.5)[1],
                     id="well_depth_deriv-<lambda>")])
    def test_beta_ceiling(self, name, call):
        # only beta <= 0 was rejected: nan returned nan and 1000 returned 0.0
        assert np.all(np.isfinite(call(BETA_MAX)))
        for beta in (math.nextafter(BETA_MAX, math.inf), math.nan, 800.0):
            with pytest.raises(ValueError, match=f"^{name}: beta"):
                call(beta)

    def test_vectorized(self):
        ts = np.linspace(-5, 5, 11)
        vals = cumulant(1.2, ts)
        assert vals.shape == ts.shape
        assert vals[5] == 0.0


class TestCumulantDeriv:
    def test_odd_orders_vanish_at_origin(self):
        for beta in (0.5, 1.0, 2.0):
            assert cumulant_deriv(beta, 0.0, 1) == 0.0

    def test_second_deriv_at_origin_closed_form(self):
        # c''(0) = 2 e^{-beta} / (1 + 2 e^{-beta}); equals 1/3 at beta = log 4
        assert cumulant_deriv(math.log(4), 0.0, 2) == pytest.approx(1 / 3, abs=1e-15)
        for beta in (0.4, 1.3, 2.2):
            expected = 2 * math.exp(-beta) / (1 + 2 * math.exp(-beta))
            assert cumulant_deriv(beta, 0.0, 2) == pytest.approx(expected, abs=1e-15)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            beta = rng.uniform(0.1, 3.0)
            t = rng.uniform(-5.0, 5.0)
            fd = central_diff(lambda u: cumulant(beta, u), t, 1e-5)
            assert cumulant_deriv(beta, t, 1) == pytest.approx(fd, abs=1e-6)
            fd2 = central_diff(lambda u: cumulant_deriv(beta, u, 1), t, 1e-5)
            assert cumulant_deriv(beta, t, 2) == pytest.approx(fd2, abs=1e-6)

    def test_convexity_on_grid(self):
        ts = np.linspace(-50, 50, 501)
        for beta in (0.3, 1.0, math.log(4), 2.5):
            assert np.all(cumulant_deriv(beta, ts, 2) > 0)

    def test_rejects_bad_order(self):
        for order in (0, 3, 4, 5):
            with pytest.raises(ValueError, match=r"^cumulant_deriv: order must be in \(1, 2\)"):
                cumulant_deriv(1.0, 0.0, order)
        # an order equal to 1 or 2 is accepted whatever its type
        assert cumulant_deriv(1.0, 0.5, 2.0) == cumulant_deriv(1.0, 0.5, 2)
        assert cumulant_deriv(1.0, 0.5, 1.0) == cumulant_deriv(1.0, 0.5, 1)
        params = ModelParams(1.0, 0.5)
        assert free_energy_deriv(params, 0.5, 2.0) == free_energy_deriv(params, 0.5, 2)


class TestSmallTilt:
    def test_relative_precision_against_mpmath(self):
        points = [(1.0, 1e-4), (1.0, 1e-8), (1.0, 1e-12), (BETA_C, 1e-12), (10.0, 10.0)]
        with mp.workdps(DPS):
            for beta, t in points:
                c, _ = cumulant_mp(beta)
                got = (cumulant(beta, t), cumulant_deriv(beta, t, 1))
                for order, value in enumerate(got):
                    ref = mp.diff(c, mp.mpf(t), order)
                    assert abs(value - ref) <= 1e-14 * abs(ref)


class TestLargeTilt:
    def test_even_orders_against_mpmath(self):
        # a^2 e^{-|t|} underflowed once 2 beta + |t| passed 708: c'' read 0
        points = [(100.0, 600.0), (250.0, 250.0), (BETA_MAX, -701.0)]
        for beta, t in points:
            with mp.workdps(DPS + int(beta + abs(t)) // 2):
                _, c1 = cumulant_mp(beta)
                ref = mp.diff(c1, mp.mpf(t))
            for value in (cumulant_deriv(beta, t, 2), cumulant_deriv(beta, np.array([t]), 2)[0]):
                assert abs(value - ref) <= 1e-14 * abs(ref)


class TestArrayInput:
    """An array is evaluated element by element by the scalar kernels, so each
    element must equal the value at that element exactly."""

    @pytest.mark.parametrize("beta", [0.1, 1.0, BETA_C, 5.0, BETA_MAX])
    def test_matches_scalar_calls(self, beta):
        t_i = math.sqrt(Tilt(beta).s_rise)
        ts = [0.0, 1e-300, -1e-300, 1e-8, -1e-8, t_i, -t_i, 1.0, -1.0, 50.0, -50.0,
              700.0, -700.0, 701.0, -701.0, 1e4, 0, -1, 701, np.float64(-50.0)]
        params = ModelParams(beta, 1.5)
        xs = [t / (3.0 * beta) for t in ts]   # 2 beta K x = t
        grid = np.array(ts, dtype=float).reshape(4, 5)
        xgrid = grid / (3.0 * beta)
        calls = [(lambda v: cumulant(beta, v), ts, grid)]
        calls += [(lambda v, k=k: cumulant_deriv(beta, v, k), ts, grid) for k in (1, 2)]
        calls += [(lambda v: free_energy(params, v), xs, xgrid)]
        calls += [(lambda v, k=k: free_energy_deriv(params, v, k), xs, xgrid) for k in (1, 2)]
        for fn, points, array in calls:
            values = [fn(v) for v in points]
            assert all(type(v) is float for v in values)
            out = fn(array)
            assert out.shape == array.shape
            assert out.ravel().tolist() == values
            assert fn(np.float32(points[7])) == fn(float(np.float32(points[7])))
            assert fn(np.int64(-1)) == fn(-1) and fn(np.array([-1, 0])).tolist() == [fn(-1), fn(0)]

    @pytest.mark.parametrize("value", [
        True, False, np.True_, "1.0", None, 1j, 10**400, -10**400,
        np.array([True, False]), np.array(["1.0"]), np.array([1.0, None], dtype=object),
        [0.5, "1.0"]], ids=repr)
    @pytest.mark.parametrize("name, arg, call", [
        ("cumulant", "t", lambda v: cumulant(1.0, v)),
        ("cumulant_deriv", "t", lambda v: cumulant_deriv(1.0, v, 1)),
        ("free_energy", "x", lambda v: free_energy(ModelParams(1.0, 1.5), v)),
        ("free_energy_deriv", "x", lambda v: free_energy_deriv(ModelParams(1.0, 1.5), v, 2))])
    def test_rejects_what_the_real_rule_refuses(self, name, arg, call, value):
        # a bool was taken as 0 or 1, "1.0" gave a value and 10^400 raised a
        # bare OverflowError
        with pytest.raises(ValueError, match=f"^{name}: {arg} must be a finite int or float "
                                             "or an array of them, got "):
            call(value)


class TestTiltForms:
    @pytest.mark.parametrize("beta", [0.05, 1.0, BETA_C - 1e-6, BETA_C + 1e-7,
                                      BETA_C + 1e-3, 2.0, 10.0])
    def test_against_mpmath(self, beta):
        # f at s = t^2: the series (s < 1) keeps full relative precision; the
        # closed form beyond loses the digits of t c'/2 against c, fewer than four
        tilt = Tilt(beta)
        with mp.workdps(DPS):
            c, c1 = cumulant_mp(beta)
            for t in (1e-6, 1e-3, 0.3, 0.99, 1.01, 3.0, 30.0):
                s = t * t
                tm = mp.sqrt(mp.mpf(s))
                tol = 1e-14 if s < 1 else 1e-12
                f = tm * c1(tm) / 2 - c(tm)
                assert abs(tilt.depth(s)[0] - f) <= tol * abs(f)

    @pytest.mark.parametrize("beta", [1e-300, 0.05, 1.0, BETA_C - 1e-6, BETA_C, BETA_C + 1e-7,
                                      BETA_C + 1e-3, 2.0, 10.0, BETA_MAX])
    def test_secant_excess_against_mpmath(self, beta):
        # (rho, drho/ds) in s = t^2: the series below s = 1 keeps 1e-14, also
        # next to the seam at s = 1, where the closed form above loses the
        # digits of c'/(c''(0) t) against 1. drho/ds vanishes at the top of
        # rho above beta_c (near s = 1e-6 at beta_c + 1e-7), so its error is taken
        # against the larger of |drho/ds| and the secant slope |rho/s|
        tilt = Tilt(beta)
        below = (1e-12, 1e-6, 1e-3, 0.3, 0.98, math.nextafter(1.0, 0.0))
        above = (1.0, math.nextafter(1.0, 2.0), 1.02, 9.0, 900.0)
        with mp.workdps(DPS + int(beta / 2)):
            c, c1 = cumulant_mp(beta)
            p = mp.diff(c, 0, 2)
            for s in below + above:
                t = mp.sqrt(mp.mpf(s))
                rho = c1(t) / (p * t) - 1
                slope = (mp.diff(c1, t) / p - 1 - rho) / (2 * s)
                got_rho, got_slope = tilt.secant_excess(s)
                tol = 1e-14 if s < 1 else 1e-12
                assert abs(got_rho - rho) <= tol * abs(rho), s
                assert abs(got_slope - slope) <= tol * max(abs(slope), abs(rho / s)), s
            # rho = c''''(0) s/(6 c''(0)) + c^(6)(0) s^2/(120 c''(0)) + O(s^3)
            slope_0, w3 = mp.diff(c1, 0, 3) / (6 * p), mp.diff(c1, 0, 5) / (120 * p)
            assert tilt.secant_excess(0.0)[0] == 0.0
            for got in (tilt.secant_excess(0.0)[1], tilt.excess_series[0]):
                assert abs(got - slope_0) <= 1e-14 * abs(slope_0)
            assert abs(tilt.excess_series[1] - w3) <= 1e-14 * (abs(w3) + abs(slope_0))

    @pytest.mark.parametrize("beta", [BETA_C + 1e-10, BETA_C + 1e-6, BETA_C + 1e-3, 1.5, 2.0,
                                      3.0, 3.14, 3.15, 10.0, BETA_MAX])
    def test_depth_start(self, beta):
        # the K1 descent starts at the series root -gamma_2/(2 gamma_3) of
        # f/s^2 = gamma_2 + 2 gamma_3 s + ..., where gamma_3 < 0 (up to
        # beta = 3.146), and at 0.0 beyond
        with mp.workdps(DPS + int(beta / 2)):
            c = cumulant_mp(beta)[0]
            gamma_2, gamma_3 = mp.diff(c, 0, 4) / 24, mp.diff(c, 0, 6) / 720
            assert (gamma_3 < 0) == (beta < 3.146)
            if gamma_3 < 0:
                root = -gamma_2 / (2 * gamma_3)
                assert abs(Tilt(beta).depth_start - root) <= 1e-13 * root
            else:
                assert Tilt(beta).depth_start == 0.0

    @pytest.mark.parametrize("beta", [BETA_C + 1e-6, 2.0, 20.0])
    def test_depth_deriv(self, beta):
        # df/ds = (t c'' - c')/(4 t) against mpmath; the series below s = 1
        # keeps full relative precision where the closed form cancels near beta_c
        tilt = Tilt(beta)
        with mp.workdps(DPS):
            c, c1 = cumulant_mp(beta)
            for t in (1e-4, 0.5, 0.999, 1.0, 1.001, 3.0, 50.0):
                s = t * t
                tm = mp.sqrt(mp.mpf(s))
                ref = (tm * mp.diff(c1, tm) - c1(tm)) / (4 * tm)
                got = tilt.depth(s)[1]
                tol = 1e-14 if s < 1 else 1e-13
                assert abs(got - ref) <= tol * abs(ref)
                fd = central_diff(lambda u: tilt.depth(u)[0], s, 1e-3 * s)
                assert fd == pytest.approx(got, rel=1e-5)

    def test_depth_is_the_free_energy_at_the_stationary_point(self):
        for beta, t in ((0.7, 0.4), (1.9, 2.5), (3.0, 12.0)):
            m = cumulant_deriv(beta, t, 1)
            params = ModelParams(beta, t / (2 * beta * m))
            assert free_energy(params, m) == pytest.approx(Tilt(beta).depth(t * t)[0], rel=1e-12)
            assert free_energy_deriv(params, m, 1) == pytest.approx(0.0, abs=1e-13)

    def test_inflection_tilt(self):
        # s_rise = t_i^2 at the zero of c''' in t > 0, beyond which c' is
        # concave, and 0.0 up to beta_c, where there is none. acosh(1 + x) put
        # it up to 2.8e-7 off next to beta_c
        assert Tilt(1.0).s_rise == 0.0 == Tilt(BETA_C).s_rise
        for beta in (BETA_C + 1e-12, BETA_C + 1e-10, BETA_C + 1e-6, BETA_C + 1e-3, 1.5, 2.0,
                     3.0, 10.0):
            s_rise = Tilt(beta).s_rise
            with mp.workdps(DPS):
                _, c1 = cumulant_mp(beta)
                t = mp.sqrt(s_rise)
                t_i = mp.findroot(lambda u: mp.diff(c1, u, 2), (t / 2, 2 * t), solver="illinois")
                assert abs(s_rise - t_i**2) <= 1e-15 * t_i**2, beta

    @pytest.mark.parametrize("beta", [0.05, BETA_C, 20.0, BETA_MAX])
    def test_one_kernel_call_per_newton_step(self, beta, monkeypatch):
        # c' and c'' come from one evaluation of the cumulant forms, bit for
        # bit equal to the separate calls; a Newton step in s makes at most one
        # such evaluation, and none below s = 1, where (rho, drho/ds) and
        # (f, df/ds) sum the series
        tilt = Tilt(beta)
        ms = (1e-300, 1e-8, 0.5, 1.0, beta / 2, 2 * beta, 700.0, 1e4)
        for m in ms:
            for t in (m, -m):
                pair = (cumulant_deriv(beta, t, 1), cumulant_deriv(beta, t, 2))
                assert model._cumulant_derivs(math.exp(-beta), t) == pair
        calls, kernel = [], model._cumulant_derivs
        monkeypatch.setattr(model, "_cumulant_derivs",
                            lambda *args: calls.append(args) or kernel(*args))
        for m in ms:
            calls.clear()
            tilt.secant_excess(m * m)
            assert len(calls) == (m * m >= 1.0)
            calls.clear()
            tilt.depth(m * m)
            assert len(calls) == (m * m >= 1.0)

    def test_kernel_takes_e_to_the_minus_beta(self):
        # the pair from a = e^-beta and 1 + e^{-2|t|} is, bit for bit, the
        # pair that formed e^-beta per call and e^{t-|t|} + e^{-t-|t|} from two
        # exponentials, over seeded beta in [1e-3, 350] and |t| in [e^-40, e^7]
        def two_exponentials(beta, t):
            a = math.exp(-beta)
            m = abs(t)
            em = math.exp(-m)
            ehat = a * (math.exp(t - m) + math.exp(-t - m))
            dhat = em + ehat
            ephat = math.copysign(-a * math.expm1(-2.0 * m), t)
            return ephat / dhat, (ehat + 4.0 * a * a * em) / dhat * (em / dhat)

        rng = np.random.default_rng(31)
        betas = [1e-3, BETA_C, BETA_MAX, *np.exp(rng.uniform(math.log(1e-3), math.log(350), 150))]
        ms = np.exp(rng.uniform(-40.0, 7.0, 150)).tolist()
        ts = [0.0, 5e-324, 700.0, 745.0, 1e308, math.exp(-40.0), math.exp(7.0), *ms]
        for beta in map(float, betas):
            a = math.exp(-beta)
            for t in ts:
                for signed in (t, -t):
                    got = [v.hex() for v in model._cumulant_derivs(a, signed)]
                    assert got == [v.hex() for v in two_exponentials(beta, signed)], (beta, signed)

    def test_rejects_bad_input(self):
        for beta in (0.0, -1.0):
            with pytest.raises(ValueError, match="^Tilt: beta"):
                Tilt(beta)
        for s in (math.nan, math.inf, -1.0):
            for name in ("depth", "secant_excess"):
                with pytest.raises(ValueError, match=f"^Tilt.{name}: s must be finite and >= 0"):
                    getattr(Tilt(1.0), name)(s)

    def test_tilt_beta_ceiling(self):
        # at 800, e^{-beta} underflowed to 0 and was divided by and nan returned
        # 0; the tilt functions returned nan or 0.0 where they now raise
        tilt = Tilt(BETA_MAX)
        values = (*tilt.depth(0.5), *tilt.secant_excess(4.0), *tilt.secant_excess(0.25),
                  *tilt.excess_series)
        assert all(math.isfinite(v) for v in values)
        for beta in (math.nextafter(BETA_MAX, math.inf), math.nan, 800.0):
            with pytest.raises(ValueError, match="^Tilt: beta"):
                Tilt(beta)

    def test_series_built_at_most_once(self, monkeypatch):
        # the gamma_j series was rebuilt on every call below |t| = 1, twice per
        # Newton step of first_order_k near beta_c
        counts = {"series": 0, "tilts": 0}
        build, init = model._series_coefficients, Tilt.__init__

        def counting_build(tilt):
            counts["series"] += 1
            return build(tilt)

        def counting_init(self, beta):
            counts["tilts"] += 1
            init(self, beta)

        monkeypatch.setattr(model, "_series_coefficients", counting_build)
        monkeypatch.setattr(Tilt, "__init__", counting_init)
        tilt = Tilt(BETA_C + 1e-6)
        assert counts["series"] == 0
        for t in (0.9, -0.5, 1e-3, 3.0):
            tilt.depth(t * t)
            tilt.secant_excess(t * t)
        assert counts["series"] == 1
        # the descent and every confirming well test share one Tilt
        minimize._tilt.cache_clear()
        counts.update(series=0, tilts=0)
        assert first_order_k(BETA_C + 1e-6) > 0
        assert counts == {"series": 1, "tilts": 1}
        counts.update(series=0, tilts=0)
        # ordered point: the outer tilt descends from 2 beta K = 3.2 to 2.6
        assert magnetization(ModelParams(1.0, second_order_k(1.0) + 0.4)) > 0.8
        assert counts == {"series": 0, "tilts": 1}
        counts.update(series=0, tilts=0)
        # the same beta near K(beta): the kept Tilt builds its series
        assert magnetization(ModelParams(1.0, second_order_k(1.0) + 1e-6)) > 0
        assert counts == {"series": 1, "tilts": 0}
        assert magnetization(ModelParams(1.0, second_order_k(1.0) + 2e-6)) > 0
        assert counts == {"series": 1, "tilts": 0}


class TestFreeEnergy:
    def test_zero_at_origin_and_even(self):
        params = ModelParams(1.3, 2.1)
        assert free_energy(params, 0.0) == 0.0
        for x in (0.2, 0.77, 3.0):
            assert free_energy(params, x) == free_energy(params, -x)

    def test_value_example(self):
        # G(0.5) at (beta, K) = (1, 2): 0.5 - c_1(2)
        expected = 0.5 - cumulant_reference(1.0, 2.0)
        assert free_energy(ModelParams(1.0, 2.0), 0.5) == pytest.approx(
            expected, abs=1e-14)

    def test_linear_lower_bound(self):
        # c_beta(t) <= |t| + log 3 gives G(x) >= beta K x^2 - 2 beta K |x| - log 3
        xs = np.linspace(-10, 10, 401)
        for beta, kappa in ((0.5, 0.5), (1.0, 2.0), (2.5, 1.1)):
            params = ModelParams(beta, kappa)
            bound = beta * kappa * xs**2 - 2 * beta * kappa * np.abs(xs) - math.log(3)
            assert np.all(np.asarray(free_energy(params, xs)) >= bound - 1e-12)

    def test_coercive_beyond_the_well(self):
        # single-phase point: G grows monotonically past the origin well
        params = ModelParams(2.0, 0.6)
        g1 = free_energy(params, 1.0)
        g10 = free_energy(params, 10.0)
        assert g10 > g1 > 0

    def test_beyond_the_floats(self):
        # 2 beta K x overflows: c(2 beta K x) = 2 beta K |x| - beta - log(1 + 2 e^-beta)
        params = ModelParams(1.0, 1e308)
        assert free_energy(params, 1.0) == free_energy(params, -1.0) == -1e308
        assert free_energy(params, 0.5) == -7.5e307
        assert free_energy(params, 0.0) == 0.0
        assert free_energy(ModelParams(2.0, 1e308), 1.0) == -math.inf
        assert free_energy(ModelParams(2.0, 1e308), 0.0) == 0.0

    @pytest.mark.parametrize("beta, kappa", [(2.0, 1e308), (1.0, 1e307), (1.0, 1e308)])
    def test_array_beyond_the_floats(self, beta, kappa):
        # an array raised "cumulant: t must be finite" with RuntimeWarnings
        # where 2 beta K x overflows; it holds its elements' scalar values
        params = ModelParams(beta, kappa)
        xs = [-1.0, 0.0, 0.5, 1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [free_energy(params, x) for x in xs]
            assert free_energy(params, np.array(xs)).tolist() == values
        assert values[1] == 0.0 and values[0] == values[3] <= values[2] < 0.0


class TestFreeEnergyDeriv:
    def test_gradient_zero_at_origin(self):
        assert free_energy_deriv(ModelParams(0.7, 1.9), 0.0, 1) == 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            params = ModelParams(rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0))
            x = rng.uniform(-1.0, 1.0)
            fd = central_diff(lambda u: free_energy(params, u), x, 1e-6)
            assert free_energy_deriv(params, x, 1) == pytest.approx(fd, abs=1e-7)
            fd2 = central_diff(lambda u: free_energy_deriv(params, u, 1), x, 1e-6)
            assert free_energy_deriv(params, x, 2) == pytest.approx(fd2, abs=1e-6)

    def test_stationary_at_magnetization(self):
        params = ModelParams(1.0, 2.0)
        m = magnetization(params)
        assert m > 0
        assert abs(free_energy_deriv(params, m, 1)) < 1e-10

    def test_curvature_beyond_the_square_of_two_beta_k(self):
        # (2 beta K)^2 raised OverflowError past 2 beta K = 1.3e154;
        # at the origin the curvature is now -inf, at the ordered well c'' = 0
        params = ModelParams(1.0, 1e300)
        assert free_energy_deriv(params, 0.0, 2) == -math.inf
        assert free_energy_deriv(params, 1.0, 2) == 2e300
        assert free_energy_deriv(ModelParams(1.0, 1e150), 0.0, 2) < -1e299

    def test_total_where_two_beta_k_x_overflows(self):
        # both raised "cumulant_deriv: t must be finite"; as in free_energy,
        # c' = sign x and c'' = 0 there, and 2 beta K = inf makes G''(0) = -inf
        huge, unit = ModelParams(1.0, 1e308), ModelParams(1.0, 1.0)
        assert free_energy_deriv(huge, 0.0, 2) == -math.inf
        assert free_energy_deriv(unit, 1e308, 1) == math.inf
        assert free_energy_deriv(huge, 0.0, 1) == 0.0
        assert free_energy_deriv(unit, 1e308, 2) == 2.0
        xs = np.array([0.0, 1.0, -1.0, 0.5, -2.0])
        assert free_energy_deriv(huge, xs, 1).tolist() == [0.0, 0.0, 0.0, -math.inf, -math.inf]
        assert free_energy_deriv(huge, xs, 2).tolist() == [-math.inf] + [math.inf] * 4
        assert free_energy_deriv(unit, np.array([1e308, -1e308]), 1).tolist() == [
            math.inf, -math.inf]
        assert free_energy_deriv(unit, np.array([1e308, -1e308]), 2).tolist() == [2.0, 2.0]

    def test_free_energy_where_beta_k_x_overflows_at_two(self):
        # free_energy's bk |x| (|x| - 2) was inf * 0 = nan at |x| = 2; the term
        # is 0 there, so G = beta + log1p(2 e^-beta), 1.5514 at beta = 1
        huge = ModelParams(1.0, 1e308)
        expected = 1.0 + math.log1p(2.0 * math.exp(-1.0))
        assert free_energy(huge, 2.0) == free_energy(huge, -2.0) == expected
        assert round(expected, 4) == 1.5514
        assert free_energy(huge, np.array([2.0, -2.0])).tolist() == [expected, expected]

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            free_energy_deriv(ModelParams(1.0, 1.0), 0.1, 3)
