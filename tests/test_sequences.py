"""Sequence specs, their validity inequalities, scaling polynomials,
exponents, limit constants, and the free-energy convergence checks."""

import dataclasses
import math
import random

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from bclab import (BETA_C, EvenPolynomial, MinimumSet, Regime, SequenceSpec,
                   SpecValidationError, UnsupportedSequenceError, XbarResult,
                   c4_coefficient, check_hypothesis_iiia, check_hypothesis_v,
                   coexistence_onset, critical_constants, g_tilde,
                   gl_polynomial, limit_constant, params_at,
                   scaled_free_energy_table, second_order_k,
                   second_order_k_deriv, spec_from_json, spec_to_json,
                   validate, xbar)
from bclab.sequences import K1_THIRD_DERIV_AT_BETA_C, KINDS, scaling_exponents
from mp_reference import exp_poly_abs_moment_mp, k1_taylor_mp

SEQ1 = SequenceSpec(kind="seq1", alpha=0.3, beta=1.0, b=0, k=1.0)
SEQ3 = SequenceSpec(kind="seq3", alpha=0.5, b=0, k=1.0)


def seq4_case_d():
    cc = critical_constants()
    ell_tilde = K1_THIRD_DERIV_AT_BETA_C + 1.0
    return SequenceSpec(kind="seq4", alpha=0.2, ell=cc.ell_c,
                        ell_tilde=ell_tilde, case="d")


def per_kind_inequalities(spec):
    """(verdict, margin of the sign rule or None) from each kind's
    coexistence inequalities written out on their own."""
    Kc, bc = second_order_k_deriv, BETA_C
    ell_c = critical_constants().ell_c
    if spec.kind in ("seq1", "seq3"):
        beta = spec.beta if spec.kind == "seq1" else bc
        margin = -(Kc(beta, 1) * spec.b - spec.k)
        return spec.k != 0 and margin > 0, margin
    if spec.kind in ("seq2", "seq6"):
        beta, b = (spec.beta, spec.b) if spec.kind == "seq2" else (bc, -1.0)
        kp = Kc(beta, spec.p)
        margin = -((kp - spec.ell) * b**spec.p)
        return spec.ell != kp and margin > 0, margin
    if spec.kind == "seq5" or spec.case == "a":
        margin = spec.ell - Kc(bc, 2)
        return margin > 0, margin
    if spec.case == "b":
        return (abs(spec.ell - Kc(bc, 2)) <= 1e-9
                and spec.ell_tilde - Kc(bc, 3) > 0), None
    if spec.case == "c":
        return ell_c < spec.ell < Kc(bc, 2), None
    return (abs(spec.ell - ell_c) <= 1e-9
            and spec.ell_tilde > K1_THIRD_DERIV_AT_BETA_C), None


def random_spec(rng, kind, case):
    """A seeded spec of kind (seq4 of case), on either side of its rule and
    sometimes exactly on it."""
    Kc, bc = second_order_k_deriv, BETA_C
    alpha = rng.choice([0.1, 1 / 3, 0.5, 0.8])
    step = rng.choice([0.0, rng.uniform(-1e-9, 1e-9), rng.uniform(-3.0, 3.0)])
    if kind in ("seq1", "seq3"):
        beta = {"beta": rng.uniform(0.1, 1.35)} if kind == "seq1" else {}
        k = rng.choice([0.0, rng.uniform(-0.3, 0.3), rng.uniform(-3.0, 3.0)])
        return SequenceSpec(kind=kind, alpha=alpha, b=rng.choice([-1, 0, 1]), k=k, **beta)
    if kind == "seq2":
        beta, p = rng.uniform(0.1, 1.35), rng.randint(2, 6)
        return SequenceSpec(kind=kind, alpha=alpha, beta=beta, b=rng.choice([-1, 1]), p=p,
                            ell=Kc(beta, p) + step)
    if kind == "seq6":
        p = rng.randint(3, 8)
        return SequenceSpec(kind=kind, alpha=alpha, p=p, ell=Kc(bc, p) + step)
    if kind == "seq5":
        return SequenceSpec(kind=kind, alpha=alpha, ell=Kc(bc, 2) + step)
    ell_c = critical_constants().ell_c
    ell = {"a": Kc(bc, 2), "b": Kc(bc, 2), "c": (Kc(bc, 2) + ell_c) / 2, "d": ell_c}[case]
    tilde = Kc(bc, 3) if case == "b" else K1_THIRD_DERIV_AT_BETA_C
    return SequenceSpec(kind=kind, alpha=alpha, ell=ell + step, case=case,
                        ell_tilde=tilde + rng.choice([-0.5, 0.0, 0.5]))


def written_out(kind, n):
    """(spec, beta_n, K_n, (c2, c4, c6), (alpha0, theta)) at index n, each
    value written out by hand from the module docstring; alpha = 0.2."""
    x = n ** -0.2
    K0, Kc = second_order_k, second_order_k_deriv
    bc = BETA_C
    if kind == "seq2":  # p = 3, b = -1 around beta = 1.2
        ell = Kc(1.2, 3) - 2.0
        return (SequenceSpec(kind="seq2", alpha=0.2, beta=1.2, b=-1, p=3, ell=ell),
                1.2 - x,
                K0(1.2) - Kc(1.2, 1) * x + Kc(1.2, 2) * x**2 / 2 - ell * x**3 / 6,
                (-1.2 * (Kc(1.2, 3) - ell) / 6, c4_coefficient(1.2), 0.0),
                (1 / 6, 1.5))
    if kind == "seq3":  # b = -1, k = 1
        return (SequenceSpec(kind="seq3", alpha=0.2, b=-1, k=1.0),
                bc - x, K0(bc) + x,
                (bc * (-Kc(bc, 1) - 1.0), 0.0, 9 / 40), (2 / 3, 0.25))
    if kind == "seq4":  # case a, with a nonzero cubic term ell_tilde
        ell = Kc(bc, 2) + 1.0
        return (SequenceSpec(kind="seq4", alpha=0.2, ell=ell, ell_tilde=2.5, case="a"),
                bc + x,
                K0(bc) + Kc(bc, 1) * x + ell * x**2 / 2 + 2.5 * x**3 / 6,
                (bc / 2 * (Kc(bc, 2) - ell), -3 / 4, 9 / 40), (1 / 3, 0.5))
    # seq6, p = 4
    ell = Kc(bc, 4) + 5.0
    return (SequenceSpec(kind="seq6", alpha=0.2, p=4, ell=ell),
            bc - x,
            (K0(bc) - Kc(bc, 1) * x + Kc(bc, 2) * x**2 / 2 - Kc(bc, 3) * x**3 / 6
             + ell * x**4 / 24),
            (bc / 24 * (Kc(bc, 4) - ell), 3 / 4, 0.0), (1 / 7, 1.5))


class TestEvenPolynomial:
    def test_requires_coercivity(self):
        with pytest.raises(ValueError, match="^EvenPolynomial: .* positive leading one"):
            EvenPolynomial(c2=-1.0)
        with pytest.raises(ValueError, match="^EvenPolynomial: .* positive leading one"):
            EvenPolynomial(c2=1.0, c4=2.0, c6=-0.1)
        with pytest.raises(ValueError, match="^EvenPolynomial: .* positive leading one"):
            EvenPolynomial()

    @pytest.mark.parametrize("coeffs", [
        dict(c4=math.nan), dict(c4=math.inf), dict(c2=-math.inf, c4=1.0),
        dict(c2=math.nan, c6=1.0),
    ])
    def test_rejects_nonfinite_coefficients(self, coeffs):
        with pytest.raises(ValueError, match="^EvenPolynomial: coefficients must be finite "):
            EvenPolynomial(**coeffs)

    def test_degree_and_evaluation(self):
        g = EvenPolynomial(c2=-1.0, c4=0.5)
        assert g.degree == 4
        assert g(2.0) == pytest.approx(-4.0 + 8.0)
        assert EvenPolynomial(c2=1.0).degree == 2
        assert EvenPolynomial(c2=-1.0, c6=1.0).degree == 6

    def test_leading_term_of_a_quadratic_is_itself(self):
        assert EvenPolynomial(c2=2.0).leading_term() == EvenPolynomial(c2=2.0)


class TestSequenceSpecConstruction:
    def test_rejects_anchor_at_tricritical(self):
        # c4(beta_c) = 0 would degenerate the quartic theory
        with pytest.raises(ValueError):
            SequenceSpec(kind="seq1", alpha=0.3, beta=BETA_C, b=0, k=1.0)

    def test_rejects_bad_b_and_p(self):
        with pytest.raises(ValueError):
            SequenceSpec(kind="seq1", alpha=0.3, beta=1.0, b=2, k=1.0)
        with pytest.raises(ValueError):
            SequenceSpec(kind="seq2", alpha=0.1, beta=1.0, b=0, p=2, ell=0.0)
        with pytest.raises(ValueError):
            SequenceSpec(kind="seq2", alpha=0.1, beta=1.0, b=1, p=1, ell=0.0)
        with pytest.raises(ValueError):
            SequenceSpec(kind="seq6", alpha=0.1, p=2, ell=0.0)
        # K^(p) is taken up to order 12: above it validate and params_at raised
        with pytest.raises(ValueError, match=r"^SequenceSpec: seq6 requires integer p in \[3, 12\]"):
            SequenceSpec(kind="seq6", alpha=0.1, p=14, ell=1.0)
        with pytest.raises(ValueError, match=r"^SequenceSpec: seq2 requires integer p in \[2, 12\]"):
            SequenceSpec(kind="seq2", alpha=0.1, beta=1.0, b=1, p=13, ell=1.0)
        for kind, extra in (("seq6", {}), ("seq2", dict(beta=1.0, b=1))):
            assert SequenceSpec(kind=kind, alpha=0.1, p=12, ell=1.0, **extra).p == 12

    def test_rejects_field_mismatch(self):
        with pytest.raises(ValueError, match="requires field"):
            SequenceSpec(kind="seq1", alpha=0.3, beta=1.0, b=0)
        with pytest.raises(ValueError, match="does not take"):
            SequenceSpec(kind="seq5", alpha=0.2, ell=2.0, k=1.0)

    def test_rational_alpha(self):
        spec = SequenceSpec(kind="seq3", alpha="2/3", b=0, k=1.0)
        assert spec.alpha == 2 / 3

    @pytest.mark.parametrize("fields", [
        dict(kind="seq7", alpha=0.3),
        dict(kind="seq3", alpha="1/0", b=0, k=1.0),
        dict(kind="seq3", alpha=-0.5, b=0, k=1.0),
        dict(kind="seq1", alpha=0.3, beta=1.0, b=0),
        dict(kind="seq1", alpha=0.3, beta=2.0, b=0, k=1.0),
        dict(kind="seq3", alpha=0.3, b=2, k=1.0),
        dict(kind="seq4", alpha=0.3, ell=1.0, ell_tilde=0.0, case="e"),
    ])
    def test_errors_name_the_constructor(self, fields):
        with pytest.raises(ValueError, match="^SequenceSpec: "):
            SequenceSpec(**fields)

    def test_zero_denominator_alpha(self):
        with pytest.raises(ValueError, match="^SequenceSpec: alpha: zero denominator in '1/0'$"):
            SequenceSpec(kind="seq3", alpha="1/0", b=0, k=1.0)

    # alpha=True used to be taken as 1.0, b=True as 1 and k=nan or inf as
    # given; beta="x" raised a bare TypeError from the anchor-range check
    @pytest.mark.parametrize("field, value, message", [
        ("alpha", True, "alpha: must be a finite int or float or a rational string, got True"),
        ("alpha", None, "alpha: must be a finite int or float or a rational string, got None"),
        ("alpha", np.float32(0.5),
         r"alpha: must be a finite int or float or a rational string, got np.float32\(0.5\)"),
        ("alpha", np.int64(1),
         r"alpha: must be a finite int or float or a rational string, got np.int64\(1\)"),
        ("beta", "x", "beta: must be a finite int or float, got 'x'"),
        ("k", math.nan, "k: must be a finite int or float, got nan"),
        ("k", math.inf, "k: must be a finite int or float, got inf"),
        ("k", False, "k: must be a finite int or float, got False"),
        ("b", True, "b must be an int, got True"),
        ("b", 1.0, "b must be an int, got 1.0"),
    ])
    def test_rejects_ill_typed_fields(self, field, value, message):
        fields = dict(kind="seq1", alpha=0.3, beta=1.0, b=0, k=1.0)
        fields[field] = value
        with pytest.raises(ValueError, match=f"^SequenceSpec: {message}$"):
            SequenceSpec(**fields)

    @pytest.mark.parametrize("fields, message", [
        (dict(kind="seq2", alpha=0.1, beta=1.0, b=1, p=2.0, ell=0.0),
         "p must be an int, got 2.0"),
        (dict(kind="seq6", alpha=0.1, p=True, ell=0.0), "p must be an int, got True"),
        (dict(kind="seq5", alpha=0.2, ell=-math.inf), "ell: must be a finite int or float, got -inf"),
        (dict(kind="seq4", alpha=0.2, ell=1.0, ell_tilde="0.5", case="a"),
         "ell_tilde: must be a finite int or float, got '0.5'"),
    ])
    def test_rejects_ill_typed_fields_of_other_kinds(self, fields, message):
        with pytest.raises(ValueError, match=f"^SequenceSpec: {message}$"):
            SequenceSpec(**fields)


class TestSerialization:
    def test_round_trip(self):
        doc = '{"kind":"seq1","alpha":0.3,"beta":1.0,"b":0,"k":1.0}'
        spec = spec_from_json(doc)
        assert spec == SEQ1
        assert spec_from_json(spec_to_json(spec)) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            spec_from_json('{"kind":"seq1","alpha":0.3,"beta":1.0,"b":0,"k":1.0,"q":2}')

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="missing field"):
            spec_from_json('{"kind":"seq1","alpha":0.3,"beta":1.0,"b":0}')

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            spec_from_json('{"kind":"seq7","alpha":0.3}')

    @pytest.mark.parametrize("doc", [
        '{"alpha":0.3}',
        '{"kind":"seq7","alpha":0.3}',
        '{"kind":"seq1","alpha":0.3,"beta":1.0,"b":0,"k":1.0,"q":2}',
        '{"kind":"seq1","alpha":0.3,"beta":1.0,"b":0}',
        '[1, 2]',
        '{"kind":',
    ])
    def test_errors_name_the_operation(self, doc):
        with pytest.raises(ValueError, match="^spec_from_json: "):
            spec_from_json(doc)

    def test_seq2_anchor_spelled_beta0_on_the_wire(self):
        doc = '{"kind":"seq2","alpha":0.1,"beta0":1.0,"b":1,"p":2,"ell":9.0}'
        spec = spec_from_json(doc)
        assert spec.beta == 1.0
        assert '"beta0": 1.0' in spec_to_json(spec)
        with pytest.raises(ValueError, match="unknown field"):
            spec_from_json('{"kind":"seq2","alpha":0.1,"beta":1.0,"b":1,"p":2,"ell":9.0}')


class TestValidate:
    def test_seq1_zero_k_reported(self):
        # the sign inequality holds (K'(1) = -1/2 exactly, so K'(1)*1 - 0 < 0)
        # but the k != 0 requirement must be the reported failure
        assert second_order_k_deriv(1.0, 1) == -0.5
        spec = SequenceSpec(kind="seq1", alpha=0.3, beta=1.0, b=1, k=0.0)
        results = {c.name: c for c in validate(spec)}
        assert not results["k nonzero"].passed
        assert results["K^(p)(beta0) h^p - ell s < 0"].passed
        with pytest.raises(SpecValidationError, match="k nonzero"):
            params_at(spec, 10)

    def test_seq1_sign_violation(self):
        # K'(1) = -1/2 < 0, so b = -1, k = 0.1 gives K' b - k = 0.4 > 0
        spec = SequenceSpec(kind="seq1", alpha=0.3, beta=1.0, b=-1, k=0.1)
        assert not all(c.passed for c in validate(spec))

    def test_seq5_needs_ell_above_curvature(self):
        bad = SequenceSpec(kind="seq5", alpha=0.2,
                           ell=second_order_k_deriv(BETA_C, 2) - 1.0)
        assert not validate(bad)[0].passed
        good = SequenceSpec(kind="seq5", alpha=0.2,
                            ell=second_order_k_deriv(BETA_C, 2) + 1.0)
        assert all(c.passed for c in validate(good))

    def test_seq4_case_d_passes_with_conjecture_caveat(self):
        checks = validate(seq4_case_d())
        assert all(c.passed for c in checks)
        assert any("conjecture" in c.note for c in checks)

    def test_seq4_case_d_needs_ell_tilde_above_k1_third_derivative(self):
        # the step-1e-3 forward difference used before gave K1''' = 0.90256,
        # which accepted ell_tilde in (0.90256, 0.91078)
        spec = dataclasses.replace(seq4_case_d(), ell_tilde=0.905)
        results = {c.name: c for c in validate(spec)}
        assert not results["case d: ell_tilde > K1'''(beta_c)"].passed
        assert results["case d: ell = ell_c"].passed

    def test_k1_third_derivative_matches_the_series(self):
        # the reference's K1' and K1'' reproduce K'(beta_c) and ell_c, the
        # two conjectures of cases c and d, to 20 digits
        k1p, k1pp, k1ppp = k1_taylor_mp()[1:]
        with mp.workdps(30):
            bc = mp.log(4)
            assert abs(k1p - (1 / bc - 3 / (2 * bc**2))) <= 1e-20
            assert abs(k1pp - (1 / bc - 2 / bc**2 + 3 / bc**3 - 5 / (4 * bc))) <= 1e-20
        assert abs(K1_THIRD_DERIV_AT_BETA_C - float(k1ppp)) <= 1e-14

    def test_seq4_case_mismatch(self):
        cc = critical_constants()
        bad = SequenceSpec(kind="seq4", alpha=0.2, ell=cc.ell_c - 0.5,
                           ell_tilde=0.0, case="c")
        assert not all(c.passed for c in validate(bad))

    def test_matches_the_per_kind_inequalities(self):
        # validate states one sign rule for all kinds; the oracle keeps the
        # inequalities written out per kind
        rng = random.Random(15)
        checked = {}
        for i in range(720):
            spec = random_spec(rng, KINDS[i % 6], "abcd"[i // 6 % 4])
            verdict, margin = per_kind_inequalities(spec)
            checks = validate(spec)
            assert all(c.passed for c in checks) is verdict, spec
            coexistence = [c.margin for c in checks if c.name == "K^(p)(beta0) h^p - ell s < 0"]
            assert coexistence == ([] if margin is None else [margin]), spec
            if margin:  # an exact 0 may differ in sign; the check fails either way
                assert coexistence[0].hex() == margin.hex(), spec
            key = (spec.kind, spec.case, verdict)
            checked[key] = checked.get(key, 0) + 1
        # every kind and seq4 case is seen both valid and invalid
        assert len(checked) == 2 * 9


class TestParamsAt:
    def test_seq1_substitution(self):
        params = params_at(SEQ1, 1)
        assert params.beta == 1.0
        assert params.kappa == pytest.approx(second_order_k(1.0) + 1.0, abs=1e-15)

    def test_seq1_monotone_convergence(self):
        kappas = [params_at(SEQ1, n).kappa for n in (10, 100, 1000, 10000)]
        target = second_order_k(1.0)
        assert all(a > b > target for a, b in zip(kappas, kappas[1:]))

    def test_seq5_substitution(self):
        ell = second_order_k_deriv(BETA_C, 2) + 1.0
        spec = SequenceSpec(kind="seq5", alpha=0.2, ell=ell)
        n = 10**6
        params = params_at(spec, n)
        assert params.beta == pytest.approx(BETA_C - n**-0.2, abs=1e-15)
        expected = (second_order_k(BETA_C) - second_order_k_deriv(BETA_C, 1) * n**-0.2
                    + ell / (2 * n**0.4))
        assert params.kappa == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 10**6])
    @pytest.mark.parametrize("kind", ["seq2", "seq3", "seq4", "seq6"])
    def test_substitution_per_kind(self, kind, n):
        spec, beta_n, kappa_n, _, _ = written_out(kind, n)
        params = params_at(spec, n)
        assert params.beta == pytest.approx(beta_n, abs=1e-15)
        assert params.kappa == pytest.approx(kappa_n, abs=1e-15)

    def test_coexistence_onset(self):
        assert coexistence_onset(SEQ1) == 1
        # seq5's quadratic ell-term only beats the curve remainder from n = 2
        spec = SequenceSpec(kind="seq5", alpha=0.25,
                            ell=second_order_k_deriv(BETA_C, 2) + 1.0)
        assert coexistence_onset(spec) == 2
        # beta_n = 1/2 - n^-0.3 <= 0 up to n = 8: those probes count as
        # outside, and the single-phase stretch from 16 to 131072 as well
        low = SequenceSpec(kind="seq1", alpha=0.3, beta=0.5, b=-1, k=3.0)
        assert all(c.passed for c in validate(low))
        assert coexistence_onset(low) == 262144
        with pytest.raises(ValueError, match=r"^params_at: beta_n at n = 8: .* got -0\.03"):
            params_at(low, 8)

    def test_coexistence_onset_never_reached(self):
        # d = -1e-9 is valid, but at alpha = 0.05 the ell-term stays below the
        # curve remainder through every probe
        spec = SequenceSpec(kind="seq5", alpha=0.05,
                            ell=second_order_k_deriv(BETA_C, 2) + 1e-9)
        with pytest.raises(SpecValidationError,
                           match=r"^coexistence_onset: sequence never entered .* n = 2\^20$"):
            coexistence_onset(spec)


class TestGlPolynomial:
    def test_seq1_coefficients(self):
        g, exps = gl_polynomial(SEQ1)
        assert g.c2 == pytest.approx(-1.0, abs=1e-15)
        assert g.c4 == pytest.approx(c4_coefficient(1.0), abs=1e-16)
        assert g.c6 == 0.0
        assert (exps.alpha0, exps.theta) == (0.5, 0.5)

    def test_seq3_coefficients(self):
        g, exps = gl_polynomial(SEQ3)
        assert g.c2 == pytest.approx(-BETA_C, abs=1e-15)
        assert g.c4 == 0.0
        assert g.c6 == 9 / 40
        assert (exps.alpha0, exps.theta) == (2 / 3, 0.25)

    @pytest.mark.parametrize("kind", ["seq2", "seq3", "seq4", "seq6"])
    def test_coefficients_per_kind(self, kind):
        spec, _, _, coeffs, exponents = written_out(kind, 1)
        g, exps = gl_polynomial(spec)
        assert (g.c2, g.c4, g.c6) == pytest.approx(coeffs, abs=1e-15)
        assert (exps.alpha0, exps.theta) == pytest.approx(exponents, abs=1e-15)

    def test_c4_vanishes_at_tricritical(self):
        assert abs(c4_coefficient(BETA_C)) < 1e-12

    def test_exponent_table(self):
        seq2 = scaling_exponents(
            SequenceSpec(kind="seq2", alpha=0.1, beta=1.0, b=1, p=3, ell=0.0))
        assert (seq2.alpha0, seq2.theta) == (1 / 6, 1.5)
        seq4 = scaling_exponents(seq4_case_d())
        assert (seq4.alpha0, seq4.theta) == (1 / 3, 0.5)
        seq6 = scaling_exponents(
            SequenceSpec(kind="seq6", alpha=0.1, p=3, ell=-10.0))
        assert (seq6.alpha0, seq6.theta) == (1 / 5, 1.0)

    def test_theta_alpha0_inside_unit_half(self):
        specs = [SEQ1, SEQ3, seq4_case_d(),
                 SequenceSpec(kind="seq2", alpha=0.1, beta=1.0, b=1, p=2,
                              ell=second_order_k_deriv(1.0, 2) + 1.0),
                 SequenceSpec(kind="seq5", alpha=0.2,
                              ell=second_order_k_deriv(BETA_C, 2) + 1.0),
                 SequenceSpec(kind="seq6", alpha=0.1, p=5, ell=-10.0)]
        for spec in specs:
            exps = scaling_exponents(spec)
            assert 0 < exps.theta_alpha0 < 0.5

    def test_kappa_exceeds_theta_alpha_below_threshold(self):
        exps = scaling_exponents(SEQ1)
        assert exps.kappa(0.3) == pytest.approx(0.35)
        for alpha in (0.1, 0.3, 0.49):
            assert exps.kappa(alpha) > exps.theta * alpha

    def test_kappa_closed_forms_per_kind(self):
        # the generic (1/2)(1 - alpha/alpha0) + theta*alpha collapses to
        # (1/2)(1 - alpha) for kinds 1 and 3, (1/2)(1 - p alpha) for kinds
        # 2 and 6, and (1/2)(1 - 2 alpha) for kinds 4 and 5
        alpha = 0.07
        cases = [
            (SEQ1, 0.5 * (1 - alpha)),
            (SequenceSpec(kind="seq2", alpha=alpha, beta=1.0, b=1, p=3, ell=0.0),
             0.5 * (1 - 3 * alpha)),
            (SEQ3, 0.5 * (1 - alpha)),
            (seq4_case_d(), 0.5 * (1 - 2 * alpha)),
            (SequenceSpec(kind="seq5", alpha=alpha, ell=0.0), 0.5 * (1 - 2 * alpha)),
            (SequenceSpec(kind="seq6", alpha=alpha, p=4, ell=0.0),
             0.5 * (1 - 4 * alpha)),
        ]
        for spec, expected in cases:
            assert scaling_exponents(spec).kappa(alpha) == pytest.approx(
                expected, abs=1e-14)

    def test_well_structure_for_valid_specs(self):
        # kinds whose validity inequality forces a negative quadratic term
        kpp = second_order_k_deriv(BETA_C, 2)
        negative_c2 = [SEQ1, SEQ3,
                       SequenceSpec(kind="seq2", alpha=0.1, beta=1.0, b=1, p=2,
                                    ell=second_order_k_deriv(1.0, 2) + 1.0),
                       SequenceSpec(kind="seq4", alpha=0.2, ell=kpp + 1.0,
                                    ell_tilde=0.0, case="a"),
                       SequenceSpec(kind="seq5", alpha=0.2, ell=kpp + 1.0),
                       SequenceSpec(kind="seq6", alpha=0.1, p=3,
                                    ell=second_order_k_deriv(BETA_C, 3) - 6.0)]
        for spec in negative_c2:
            g, _ = gl_polynomial(spec)
            assert g.c2 < 0
        # seq4 case (c) has a positive quadratic term but the negative quartic
        # still pushes the strict global minima out to +-xbar
        case_c = SequenceSpec(kind="seq4", alpha=0.2, ell=kpp - 0.04,
                              ell_tilde=0.0, case="c")
        for spec in negative_c2 + [case_c]:
            g, _ = gl_polynomial(spec)
            res = xbar(g)
            assert res.value > 0
            assert res.minimum_set is MinimumSet.PLUS_MINUS
            assert g(res.value) < 0


class TestGTilde:
    def test_leading_monomials(self):
        assert g_tilde(SEQ1) == EvenPolynomial(c4=c4_coefficient(1.0))
        assert g_tilde(SEQ3) == EvenPolynomial(c6=9 / 40)
        assert g_tilde(seq4_case_d()) == EvenPolynomial(c6=9 / 40)

    def test_seq6_rejected(self):
        spec = SequenceSpec(kind="seq6", alpha=0.1, p=3,
                            ell=second_order_k_deriv(BETA_C, 3) - 6.0)
        with pytest.raises(UnsupportedSequenceError):
            g_tilde(spec)


class TestXbar:
    def test_quartic_closed_form(self):
        g = EvenPolynomial(c2=-1.0, c4=c4_coefficient(1.0))
        res = xbar(g)
        assert res.value == pytest.approx(math.sqrt(1 / (2 * c4_coefficient(1.0))),
                                          abs=1e-14)
        assert res.minimum_set is MinimumSet.PLUS_MINUS

    def test_positive_definite_has_origin_only(self):
        assert xbar(EvenPolynomial(c2=1.0, c4=1.0)).value == 0.0

    def test_outer_well_above_zero_has_origin_only(self):
        # g has a local minimum at x = 0.874, where g = 0.16 > g(0)
        g = EvenPolynomial(c2=1.0, c4=-1.8, c6=1.0)
        assert g.outer_well() > 0 and g(g.outer_well()) > 0
        assert xbar(g) == XbarResult(0.0, MinimumSet.PLUS_MINUS)

    def test_seq4_case_d_three_point(self):
        g, _ = gl_polynomial(seq4_case_d())
        res = xbar(g)
        assert res.minimum_set is MinimumSet.THREE_POINT
        assert res.value == pytest.approx(math.sqrt(5 / 3), abs=1e-6)

    def test_sextic_minimizer_is_stationary(self):
        g, _ = gl_polynomial(SEQ3)
        x = xbar(g).value
        h = 1e-7
        assert abs((g(x + h) - g(x - h)) / (2 * h)) < 1e-5


class TestLimitConstant:
    def test_gaussian_sanity(self):
        # E|X| for density ~ e^{-x^2} is 1/sqrt(pi)
        assert limit_constant(EvenPolynomial(c2=1.0)) == pytest.approx(
            1 / math.sqrt(math.pi), rel=1e-9)

    def test_quartic_quarter_power_scaling(self):
        assert limit_constant(EvenPolynomial(c4=16.0)) == pytest.approx(
            0.5 * limit_constant(EvenPolynomial(c4=1.0)), rel=1e-9)

    def test_quartic_gamma_identity(self):
        c4 = c4_coefficient(1.0)
        expected = gamma_fn(0.5) / (c4**0.25 * gamma_fn(0.25))
        assert limit_constant(EvenPolynomial(c4=c4)) == pytest.approx(
            expected, rel=1e-9)

    def test_sextic_scaling(self):
        assert limit_constant(EvenPolynomial(c6=64.0)) == pytest.approx(
            0.5 * limit_constant(EvenPolynomial(c6=1.0)), rel=1e-9)

    @pytest.mark.parametrize("coeffs, expected", [
        # wells at +-10.84 behind g(2) > 60: a cutoff that stops at the first
        # X with g(X) >= 60 returned 0.0928
        ((37.125062416254664, -2.4255399211959974, 0.012862043656893307),
         10.84117991083633),
        # global minimum at 0, a barrier of 108 at x = 1.73 and a metastable
        # well of depth 1 at x = 3.0, once missed for 0.0629
        ((81.1, -18.0, 1.0), 0.9121960338889933),
        # g(xbar) = -900: exp(-g) overflowed
        ((-60.0, 1.0, 0.0), 5.476083334718344),
    ])
    def test_deep_and_hidden_wells_match_mpmath(self, coeffs, expected):
        reference = exp_poly_abs_moment_mp(*coeffs)
        assert reference == pytest.approx(expected, rel=1e-14)
        assert limit_constant(EvenPolynomial(*coeffs)) == pytest.approx(reference, rel=1e-9)

    def test_weight_window(self):
        g = EvenPolynomial(c2=81.1, c4=-18.0, c6=1.0)
        outer = g.outer_well()
        assert 0 < float(g(outer)) < 2 and float(g(outer / 1.7)) > 100
        assert g.weight_window() == (0.0, 4.0, (-outer, outer))
        floor, cutoff, points = EvenPolynomial(c2=-60.0, c4=1.0).weight_window()
        assert points == (-math.sqrt(30.0), math.sqrt(30.0))
        assert floor == pytest.approx(-900.0, rel=1e-15) and cutoff == 8.0
        assert EvenPolynomial(c4=1.0).weight_window() == (0.0, 4.0, ())


class TestHypothesisChecks:
    def test_iiia_sup_error_decreases(self):
        rows = check_hypothesis_iiia(SEQ1, 3.0, [100, 1000, 10000, 100000])
        errs = [e for _, e in rows]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_iiia_spot_grid_over_all_kinds(self):
        # joint consistency of the sequence formulas, curve derivatives,
        # polynomial coefficients and exponents, one validated spec per shape
        kpp = second_order_k_deriv(BETA_C, 2)
        specs = [
            SequenceSpec(kind="seq1", alpha=0.4, beta=0.8, b=1, k=1.0),
            SequenceSpec(kind="seq2", alpha=0.2, beta=1.0, b=1, p=2,
                         ell=second_order_k_deriv(1.0, 2) + 1.0),
            SequenceSpec(kind="seq2", alpha=0.15, beta=1.2, b=-1, p=3,
                         ell=second_order_k_deriv(1.2, 3) - 2.0),
            SequenceSpec(kind="seq3", alpha=0.4, b=-1, k=1.0),
            SequenceSpec(kind="seq4", alpha=0.25, ell=kpp + 1.0,
                         ell_tilde=0.0, case="a"),
            SequenceSpec(kind="seq4", alpha=0.25, ell=kpp - 0.05,
                         ell_tilde=0.0, case="c"),
            seq4_case_d(),
            SequenceSpec(kind="seq5", alpha=0.25, ell=kpp + 1.0),
            SequenceSpec(kind="seq6", alpha=0.12, p=3,
                         ell=second_order_k_deriv(BETA_C, 3) - 6.0),
        ]
        for spec in specs:
            rows = check_hypothesis_iiia(spec, 2.0, [10**3, 10**5, 10**7, 10**9])
            errs = [e for _, e in rows]
            assert all(a > b for a, b in zip(errs, errs[1:])), spec

    def test_iiia_zero_at_origin_and_symmetric(self):
        g, exps = gl_polynomial(SEQ1)
        n = 1000
        params = params_at(SEQ1, n)
        from bclab import free_energy
        shrink = n ** (exps.theta * SEQ1.alpha)
        speed = n ** (SEQ1.alpha / exps.alpha0)
        for x in (0.7, 1.9):
            err_pos = abs(speed * free_energy(params, x / shrink) - g(x))
            err_neg = abs(speed * free_energy(params, -x / shrink) - g(-x))
            assert err_pos == err_neg
        assert speed * free_energy(params, 0.0) == 0.0

    def test_v_pointwise_error_decreases(self):
        spec = SequenceSpec(kind="seq1", alpha=0.8, beta=1.0, b=0, k=1.0)
        rows = check_hypothesis_v(spec, [0.0, 1.0, 2.0], [100, 1000, 10000])
        at_one = [errs[1] for _, errs in rows]
        assert all(a > b for a, b in zip(at_one, at_one[1:]))
        assert all(errs[0] == 0.0 for _, errs in rows)

    def test_v_requires_fast_speed(self):
        with pytest.raises(ValueError, match="alpha0"):
            check_hypothesis_v(SEQ1, [1.0], [100])

    def test_v_takes_the_harness_regime(self):
        # alpha within ALPHA_MATCH_TOL = 1e-12 of alpha0 is at the threshold,
        # as for sequence-run and weak-limit, so it is not above it
        spec = dataclasses.replace(SEQ1, alpha=0.5 + 5e-13)
        assert scaling_exponents(spec).regime(spec.alpha) is Regime.AT
        with pytest.raises(ValueError, match="alpha0"):
            check_hypothesis_v(spec, [1.0], [100])

    def test_seq6_degenerate_limit(self):
        spec = SequenceSpec(kind="seq6", alpha=0.3, p=3,
                            ell=second_order_k_deriv(BETA_C, 3) - 6.0)
        with pytest.raises(UnsupportedSequenceError):
            check_hypothesis_v(spec, [1.0], [100])
        # the scaled free energy decays like n^(-1/10) here, so wide decades;
        # past n ~ 1e12 the n * G product starts amplifying float noise
        rows = scaled_free_energy_table(spec, [1.0], [10**4, 10**8, 10**12])
        vals = [abs(v[0]) for _, v in rows]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.05
