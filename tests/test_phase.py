"""Transition curves: closed forms, the implicit first-order solve, and
region classification."""

import math

import numpy as np
import pytest
from mp_reference import first_order_k_mp

from bclab import (BETA_C, ModelParams, PhaseRegion, classify,
                   critical_constants, cumulant_deriv, first_order_k,
                   free_energy, magnetization, second_order_k,
                   second_order_k_deriv, verify_tricritical_conjectures)
from bclab.model import BETA_MAX


def high_order_fd(fn, x, order, h):
    """Central finite difference of the given order (stencil width order+2)."""
    if order == 1:
        return (fn(x + h) - fn(x - h)) / (2 * h)
    if order == 2:
        return (fn(x + h) - 2 * fn(x) + fn(x - h)) / h**2
    if order == 3:
        return (fn(x + 2 * h) - 2 * fn(x + h) + 2 * fn(x - h) - fn(x - 2 * h)) / (2 * h**3)
    if order == 4:
        return (fn(x + 2 * h) - 4 * fn(x + h) + 6 * fn(x) - 4 * fn(x - h)
                + fn(x - 2 * h)) / h**4
    raise ValueError(order)


class TestSecondOrderCurve:
    def test_tricritical_value(self):
        assert second_order_k(BETA_C) == pytest.approx(3 / (2 * math.log(4)), abs=1e-12)

    def test_value_at_one(self):
        assert second_order_k(1.0) == pytest.approx((math.e + 2) / 4, abs=1e-15)

    def test_two_closed_forms_agree(self):
        # (e^beta + 2)/(4 beta) versus 1/(2 beta c''(0))
        for beta in np.linspace(0.2, 3.0, 29):
            alt = 1.0 / (2 * beta * cumulant_deriv(beta, 0.0, 2))
            assert second_order_k(beta) == pytest.approx(alt, abs=1e-12)

    def test_positive_and_rejects_bad_beta(self):
        assert all(second_order_k(b) > 0 for b in np.linspace(0.05, 5.0, 100))
        with pytest.raises(ValueError):
            second_order_k(0.0)
        with pytest.raises(ValueError):
            second_order_k(-1.0)

    def test_beta_ceiling(self):
        # second_order_k(720) overflowed in e^beta
        assert math.isfinite(second_order_k(BETA_MAX))
        for order in (1, 2, 12):
            assert math.isfinite(second_order_k_deriv(BETA_MAX, order))
        for beta in (math.nextafter(BETA_MAX, math.inf), math.nan, 720.0):
            with pytest.raises(ValueError, match="^second_order_k: beta"):
                second_order_k(beta)
            with pytest.raises(ValueError, match="^second_order_k_deriv: beta"):
                second_order_k_deriv(beta, 1)


class TestSecondOrderCurveDeriv:
    def test_first_deriv_at_one_is_exactly_minus_half(self):
        # (beta e^beta - e^beta - 2)/(4 beta^2) at beta = 1
        assert abs(second_order_k_deriv(1.0, 1) + 0.5) < 1e-12

    def test_first_deriv_at_tricritical(self):
        expected = (4 * math.log(4) - 6) / (4 * math.log(4) ** 2)
        assert second_order_k_deriv(BETA_C, 1) == pytest.approx(expected, abs=1e-14)

    def test_second_deriv_at_tricritical(self):
        b = BETA_C
        expected = (b * b * 4 - 2 * b * 4 + 2 * 4 + 4) / (4 * b**3)
        assert second_order_k_deriv(b, 2) == pytest.approx(expected, abs=1e-13)
        fd = high_order_fd(second_order_k, b, 2, 1e-4)
        assert second_order_k_deriv(b, 2) == pytest.approx(fd, abs=1e-5)

    def test_matches_finite_differences_orders_1_to_4(self):
        # nested differentiation: orders 3 and 4 difference the closed-form
        # order-2 curve, which keeps the conditioning under control at the
        # small-beta end where the derivatives blow up like j!/beta^(j+1)
        for beta in np.linspace(0.5, 2.5, 9):
            for order in (1, 2):
                fd = high_order_fd(second_order_k, beta, order, 1e-4)
                assert second_order_k_deriv(beta, order) == pytest.approx(fd, rel=1e-5)
            for order in (3, 4):
                fd = high_order_fd(lambda b: second_order_k_deriv(b, 2),
                                   beta, order - 2, 1e-4)
                assert second_order_k_deriv(beta, order) == pytest.approx(fd, rel=1e-5)

    def test_order_cap(self):
        second_order_k_deriv(1.0, 12)
        with pytest.raises(ValueError):
            second_order_k_deriv(1.0, 13)
        with pytest.raises(ValueError):
            second_order_k_deriv(1.0, 0)


class TestFirstOrderCurve:
    def test_below_spinodal(self):
        for beta in np.linspace(BETA_C + 0.02, 3.0, 20):
            assert first_order_k(beta) < second_order_k(beta)

    def test_limit_at_tricritical(self):
        gaps = [abs(first_order_k(BETA_C + 10.0**-j) - second_order_k(BETA_C))
                for j in range(2, 7)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3

    def test_defining_property(self):
        # at K1 the positive wells touch zero; a dense scan is the oracle
        # (400001 points keep the grid-offset error G'' dx^2/2 below 1e-10)
        for beta in (1.5, 2.0, 2.5, 3.0, BETA_C + 1e-2):
            k1 = first_order_k(beta)
            params = ModelParams(beta, k1)
            xs = np.linspace(1e-4, 1.0, 400001)
            gs = np.asarray(free_energy(params, xs))
            assert abs(gs.min()) < 1e-10
            assert xs[gs.argmin()] > 1e-3

    def test_matches_mpmath(self):
        # the documented 1e-12, from 1e-10 above the tricritical point, where
        # the descent starts at the series root of f/s^2, up to the beta
        # ceiling of ModelParams, where the start is capped at 2 beta + 2 log 3
        for beta in [BETA_C + 10.0**-j for j in range(1, 11)] + [1.5, 2.0, 3.0, 50.0, BETA_MAX]:
            k1 = first_order_k(beta)
            assert abs(k1 - first_order_k_mp(beta)) <= 1e-12
            assert magnetization(ModelParams(beta, k1)) > 0
            assert magnetization(ModelParams(beta, k1 * (1 - 1e-9))) == 0.0

    def test_well_report_band(self):
        # the documented contract: min_free_energy reports the well at K1, at
        # every float 8 or more ulps above it and at none 8 or more ulps below;
        # between, the report can flicker (it shows one ulp below K1 for 23 of
        # these 300 beta and is not monotone within 20 ulps for 7)
        rng = np.random.default_rng(300)
        for beta in np.minimum(BETA_C + 10.0 ** rng.uniform(-10.0, 2.5, 300), BETA_MAX):
            k1, below, above = first_order_k(beta), [], []
            for side, direction in ((below, 0.0), (above, math.inf)):
                k = k1
                for _ in range(20):
                    k = math.nextafter(k, direction)
                    side.append(magnetization(ModelParams(beta, k)) > 0.0)
            assert magnetization(ModelParams(beta, k1)) > 0.0
            assert not any(below[7:]) and all(above[7:]), beta

    def test_next_float_above_tricritical(self):
        # t1 is about 5e-8 here, a hundred Newton steps in t below t0 = 3 and
        # one from the series root
        k1 = first_order_k(math.nextafter(BETA_C, math.inf))
        assert abs(k1 - second_order_k(BETA_C)) <= 1e-15

    def test_repeatable(self):
        assert first_order_k(1.7) == first_order_k(1.7)

    def test_concurrent_callers_agree(self):
        # first_order_k keeps no state, so threads cannot disturb each other
        from concurrent.futures import ThreadPoolExecutor
        betas = [1.55, 1.9, 2.3, 2.7] * 4
        with ThreadPoolExecutor(max_workers=8) as pool:
            values = list(pool.map(first_order_k, betas))
        for beta, value in zip(betas, values):
            assert value == first_order_k(beta)

    def test_rejects_subcritical_beta(self):
        with pytest.raises(ValueError):
            first_order_k(BETA_C)
        with pytest.raises(ValueError):
            first_order_k(1.0)

    def test_rejects_beta_above_ceiling(self):
        for beta in (math.nextafter(BETA_MAX, math.inf), 360.0):
            with pytest.raises(ValueError, match="first_order_k"):
                first_order_k(beta)


class TestClassify:
    def test_examples(self):
        assert classify(ModelParams(1.0, 1.0)) is PhaseRegion.SINGLE_PHASE
        assert classify(ModelParams(1.0, 1.5)) is PhaseRegion.COEXISTENCE
        assert classify(ModelParams(BETA_C, 3 / (2 * math.log(4)))) \
            is PhaseRegion.TRICRITICAL_POINT

    def test_curve_membership(self):
        assert classify(ModelParams(1.0, second_order_k(1.0))) \
            is PhaseRegion.SECOND_ORDER_CURVE
        assert classify(ModelParams(2.0, first_order_k(2.0))) \
            is PhaseRegion.FIRST_ORDER_CURVE
        assert classify(ModelParams(2.0, first_order_k(2.0) - 1e-6)) \
            is PhaseRegion.SINGLE_PHASE

    def test_consistent_with_magnetization(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            beta = rng.uniform(0.5, 2.8)
            kappa = rng.uniform(0.5, 2.0)
            region = classify(ModelParams(beta, kappa))
            m = magnetization(ModelParams(beta, kappa))
            if region is PhaseRegion.COEXISTENCE:
                assert m > 1e-8
            elif region is PhaseRegion.SINGLE_PHASE:
                assert m < 1e-8


def classify_by_k1(params, k1):
    """The region from K1 = first_order_k(beta): the rule classify applied to
    every point above beta_c before its two well probes."""
    if abs(params.kappa - k1) <= 1e-12:
        return PhaseRegion.FIRST_ORDER_CURVE
    return PhaseRegion.SINGLE_PHASE if params.kappa < k1 else PhaseRegion.COEXISTENCE


class TestClassifyProbes:
    OFFSETS = (0.0, 1e-13, 9e-13, 1e-12, 1.1e-12, 2e-12, 3e-12, 1e-9, 1e-3, 0.1)

    def test_matches_the_k1_rule(self):
        # beta_c + 10^u, one u in each twelfth of [-10, 2.5]; each point sits
        # at an offset from K1, absolute or relative, or at a float
        # neighbour of one
        rng = np.random.default_rng(18)
        for u in np.linspace(-10.0, 2.5, 13)[:-1] + rng.uniform(0.0, 12.5 / 12, 12):
            beta = BETA_C + 10.0 ** u
            k1 = first_order_k(beta)
            kappas = set()
            for off in self.OFFSETS:
                for k in (k1 - off, k1 + off, k1 * (1 - off), k1 * (1 + off)):
                    kappas.update((math.nextafter(k, 0.0), k, math.nextafter(k, math.inf)))
            for kappa in sorted(kappas):
                params = ModelParams(beta, kappa)
                assert classify(params) is classify_by_k1(params, k1), params

    @pytest.mark.parametrize("beta, kappa, region", [
        (2.0, 1e-13, PhaseRegion.SINGLE_PHASE),       # kappa - 2e-12 is no model point
        (2.0, 5e-324, PhaseRegion.SINGLE_PHASE),
        (BETA_MAX, 1e-300, PhaseRegion.SINGLE_PHASE),
        (2.0, 1e308, PhaseRegion.COEXISTENCE),        # 2 beta K overflows
        (1.3863, 1e308, PhaseRegion.COEXISTENCE),
        (2.0, 1.7976931348623157e308, PhaseRegion.COEXISTENCE)])
    def test_total_at_the_extremes(self, beta, kappa, region):
        params = ModelParams(beta, kappa)
        assert classify(params) is region is classify_by_k1(params, first_order_k(beta))

    def test_no_k1_solve_away_from_the_curve(self, monkeypatch):
        from bclab import phase
        k1, calls = first_order_k(2.0), []

        def counted(beta):
            calls.append(beta)
            return first_order_k(beta)

        monkeypatch.setattr(phase, "first_order_k", counted)
        assert classify(ModelParams(2.0, 0.99 * k1)) is PhaseRegion.SINGLE_PHASE
        assert classify(ModelParams(2.0, 1.01 * k1)) is PhaseRegion.COEXISTENCE
        assert calls == []
        assert classify(ModelParams(2.0, k1)) is PhaseRegion.FIRST_ORDER_CURVE
        assert calls == [2.0]


class TestCriticalConstants:
    def test_location(self):
        cc = critical_constants()
        assert cc.beta_c == math.log(4)
        assert cc.k_at_beta_c == second_order_k(BETA_C)

    def test_conjectured_curvature_ordering(self):
        cc = critical_constants()
        assert cc.ell_c < 0 < second_order_k_deriv(BETA_C, 2)
        assert cc.ell_c == pytest.approx(-0.0949786, abs=1e-6)


class TestTricriticalConjectures:
    def test_h_cap(self):
        # below h = 1e-5 the second difference of K1 is rounding noise
        assert len(verify_tricritical_conjectures([1e-5]).rows) == 1
        with pytest.raises(ValueError, match="rounding noise"):
            verify_tricritical_conjectures([1e-4, 9e-6])

    @pytest.mark.parametrize("h", [math.nan, math.inf, (BETA_MAX - BETA_C) / 1.999])
    def test_h_past_beta_max_rejected(self, h):
        # first_order_k rejected beta_c + h or beta_c + 2h under its own name
        with pytest.raises(ValueError, match=r"^verify_tricritical_conjectures: h_grid entries "
                                             r"must be finite with beta_c \+ 2h <= BETA_MAX"):
            verify_tricritical_conjectures([h])

    def test_largest_h(self):
        # beta_c + 2h = BETA_MAX is the last point first_order_k takes
        h = (BETA_MAX - BETA_C) / 2
        assert BETA_C + 2 * h <= BETA_MAX
        assert len(verify_tricritical_conjectures([h]).rows) == 1

    def test_empty_grid_rejected(self):
        # returned a report with no rows
        with pytest.raises(ValueError, match="^verify_tricritical_conjectures: h_grid must "
                                             "hold at least one h$"):
            verify_tricritical_conjectures([])
