"""Acceptance gate: one check per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The moderate-deviation principle behind criterion 11 is a statement about
n -> infinity only: at any enumerable n the threshold a = xbar + 0.5 sits far
outside the quartic scaling window, and the exact tail rate is still several
times its limit g(a) - g(xbar). The criterion therefore checks the claim in
three parts, each of which holds, and can fail, at enumerable n. (1) The rows
marked saturated are exactly those with a > n^(theta alpha), where the tail
is empty. (2) The exact rate follows the finite-n rate R_n, the rate
log P = -n (J_n(z_a) - min J_n) would give, with J_n the Cramer transform of
the single-spin law minus beta_n K_n z^2: their difference falls with n and
is 0.063 (0.098 of the target) at n = 4000, where the exact rate is 2.784,
R_n = 2.721 and the target 0.646. (3) R_n tends to the target: its gap falls
along n = 10^4 ... 10^16 and its Aitken limit from n = 10^12, 10^14, 10^16
matches the target to 1e-4 relative.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from bclab import (BETA_C, ModelParams, SequenceSpec,
                   UnsupportedSequenceError, aitken_limit,
                   c4_coefficient, estimator_comparison, finite_size_law,
                   first_order_k, g_tilde, gl_polynomial, hs_lhs, hs_rhs,
                   magnetization, mdp_rate_estimate, params_at,
                   run_finite_size_asymptotics, run_thermo_asymptotics,
                   second_order_k, second_order_k_deriv,
                   verify_tricritical_conjectures, weak_limit_distance, xbar)
from bclab.cli import main
from bclab.model import cumulant, cumulant_deriv

SEQ1 = dict(kind="seq1", beta=1.0, b=0, k=1.0)
SEQ6_ELL_GAP = 6.0


def seq6(alpha):
    ell = second_order_k_deriv(BETA_C, 3) - SEQ6_ELL_GAP
    return SequenceSpec(kind="seq6", alpha=alpha, p=3, ell=ell)


def _report(num, name, ok, detail=""):
    line = f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_constants():
    ok1 = abs(second_order_k(math.log(4)) - 3 / (2 * math.log(4))) < 1e-12
    ok2 = abs(c4_coefficient(BETA_C)) < 1e-12
    ok3 = abs(second_order_k_deriv(1.0, 1) + 0.5) < 1e-12
    _report(1, "closed-form constants", ok1 and ok2 and ok3)


def test_criterion_02_bifurcation_structure():
    continuous = True
    for beta in (0.8, 1.0, 1.2):
        ms = [magnetization(ModelParams(beta, second_order_k(beta) + eps))
              for eps in (1e-2, 1e-3, 1e-4)]
        continuous &= ms[0] > ms[1] > ms[2] > 0
    discontinuous = True
    for beta in (1.5, 2.0):
        k1 = first_order_k(beta)
        discontinuous &= magnetization(ModelParams(beta, k1)) > 0.05
        discontinuous &= magnetization(ModelParams(beta, k1 - 1e-3)) == 0.0
    _report(2, "bifurcation structure", continuous and discontinuous)


def test_criterion_03_first_order_curve():
    betas = np.linspace(BETA_C + 1e-3, 3.0, 50)
    below = all(first_order_k(b) < second_order_k(b) for b in betas)
    gaps = [abs(first_order_k(BETA_C + 10.0**-j) - second_order_k(BETA_C))
            for j in range(2, 7)]
    converges = all(a > b for a, b in zip(gaps, gaps[1:])) and gaps[-1] < 1e-3
    _report(3, "first-order curve", below and converges,
            f"final gap {gaps[-1]:.2e}")


def test_criterion_04_tricritical_conjectures():
    rep = verify_tricritical_conjectures([1e-2, 1e-3, 1e-4, 1e-5])
    prime_errs = [abs(r.k1_prime_est - rep.k_prime_ref) for r in rep.rows]
    second_errs = [abs(r.k1_second_est - rep.ell_c_ref) for r in rep.rows]
    second_rel = second_errs[-1] / abs(rep.ell_c_ref)
    ok = (all(a > b for a, b in zip(prime_errs, prime_errs[1:]))
          and all(a > b for a, b in zip(second_errs, second_errs[1:]))
          and second_rel < 0.10)
    _report(4, "tricritical-curve conjectures", ok,
            f"K1'' rel err {second_rel:.3f}")


def test_criterion_05_brute_force_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(5):
        params = ModelParams(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
        for n in range(1, 9):
            weights = np.zeros(2 * n + 1)
            for config in itertools.product((-1, 0, 1), repeat=n):
                s = sum(config)
                h = sum(w * w for w in config) - params.kappa / n * s * s
                weights[s + n] += math.exp(-params.beta * h)
            brute = weights / weights.sum()
            law = finite_size_law(n, params)
            worst = max(worst, float(np.max(np.abs(law.probabilities() - brute))))
    _report(5, "brute-force equivalence", worst < 1e-12, f"worst {worst:.2e}")


def test_criterion_06_smoothing_identity_oracle():
    params = ModelParams(1.0, 1.5)
    cases = [(lambda x: np.minimum(np.abs(x), 1.0), (-1.0, 0.0, 1.0)),
             (lambda x: np.minimum(np.abs(x), 10.0), (-10.0, 0.0, 10.0))]
    worst = 0.0
    for n in (10, 50, 200):
        for gb in (0.0, 0.2, 0.4):
            for f, kinks in cases:
                lhs = hs_lhs(n, params, gb, f, kinks=kinks)
                rhs = hs_rhs(n, params, gb, f, kinks=kinks)
                worst = max(worst, abs(lhs - rhs) / abs(rhs))
    _report(6, "Gaussian-smoothing identity (18 cases)", worst < 1e-8,
            f"worst rel {worst:.2e}")


def test_criterion_07_thermodynamic_asymptotics():
    decades = [10**d for d in range(3, 10)]
    ok_all, details = True, []
    seq5_ell = second_order_k_deriv(BETA_C, 2) + 1.0
    for spec in (SequenceSpec(alpha=0.3, **SEQ1),
                 SequenceSpec(kind="seq3", alpha=0.5, b=0, k=1.0),
                 SequenceSpec(kind="seq5", alpha=0.2, ell=seq5_ell)):
        report = run_thermo_asymptotics(spec, decades)
        xb = report.constants.x_bar
        errs = [abs(r.scaled_m / xb - 1) for r in report.rows]
        ok = all(a > b for a, b in zip(errs, errs[1:])) and errs[-1] < 0.01
        ok_all &= ok
        details.append(f"{spec.kind}: {errs[-1]:.4f}")
    _report(7, "thermodynamic magnetization asymptotics", ok_all,
            "; ".join(details))


def test_criterion_08_finite_size_below():
    spec = SequenceSpec(alpha=0.3, **SEQ1)
    report = run_finite_size_asymptotics(spec, [250, 500, 1000, 2000, 4000])
    xb = report.constants.x_bar
    scaled = [r.scaled_e for r in report.rows]
    gaps = [abs(v - xb) for v in scaled]
    trend = all(a > b for a, b in zip(gaps, gaps[1:]))
    extrap_rel = abs(aitken_limit(scaled) / xb - 1)
    last = report.rows[-1]
    ratio = last.e_finite / last.m_thermo
    ok = trend and extrap_rel < 0.05 and 0.8 <= ratio <= 1.25
    _report(8, "finite-size regime below threshold", ok,
            f"extrapolated rel err {extrap_rel:.4f}, E/m {ratio:.3f}")


def test_criterion_09_finite_size_above():
    spec = SequenceSpec(alpha=0.8, **SEQ1)
    ns = [250, 1000, 4000, 16000, 64000]
    report = run_finite_size_asymptotics(spec, ns)
    yb = report.constants.y_bar
    scaled = [r.scaled_e for r in report.rows]
    gaps = [abs(v - yb) for v in scaled]
    trend = all(a > b for a, b in zip(gaps, gaps[1:]))
    extrap_rel = abs(aitken_limit(scaled) / yb - 1)
    ratios = [r for _, r in estimator_comparison(spec, ns)]
    growing = all(a < b for a, b in zip(ratios, ratios[1:]))
    ok = trend and extrap_rel < 0.05 and growing and ratios[-1] / ratios[0] > 2
    _report(9, "finite-size regime above threshold", ok,
            f"extrapolated rel err {extrap_rel:.4f}, "
            f"E/m growth {ratios[-1] / ratios[0]:.3f}")


def test_criterion_10_finite_size_at():
    spec = SequenceSpec(alpha=0.5, **SEQ1)
    report = run_finite_size_asymptotics(spec, [250, 500, 1000, 2000, 4000])
    zb = report.constants.z_bar
    extrap_rel = abs(aitken_limit([r.scaled_e for r in report.rows]) / zb - 1)
    _report(10, "finite-size regime at threshold", extrap_rel < 0.05,
            f"extrapolated rel err {extrap_rel:.4f}")


def _root(f, lo, hi):
    return brentq(f, lo, hi, xtol=1e-300, rtol=1e-15)


def _cramer(beta, z):
    """Cramer transform I_beta(z) = sup_t [t z - c_beta(t)] for 0 <= z < 1."""
    hi = 1.0
    while cumulant_deriv(beta, hi, 1) < z:
        hi *= 2.0
    t = _root(lambda t: cumulant_deriv(beta, t, 1) - z, 0.0, hi)
    return t * z - cumulant(beta, t)


def _finite_n_rate(spec, a, n):
    """R_n = n^(alpha/alpha0) [J_n(a n^-(theta alpha)) - min J_n], where
    J_n(z) = I_beta_n(z) - beta_n K_n z^2 has the same minimum as G_n.

    The minimum sits at z = c'(t) for the positive tilt t = 2 beta_n K_n c'(t);
    its bracket is halved down from above until the sign is right.
    """
    _, exps = gl_polynomial(spec)
    params = params_at(spec, n)
    beta, bk = params.beta, params.beta * params.kappa

    def tilt_gap(t):
        return t - 2.0 * bk * cumulant_deriv(beta, t, 1)

    hi = lo = 2.0 * bk + 1.0
    while tilt_gap(lo) >= 0:
        lo /= 2.0
    m = cumulant_deriv(beta, _root(tilt_gap, lo, hi), 1)

    def j(z):
        return _cramer(beta, z) - bk * z * z

    z_a = a / n ** (exps.theta * spec.alpha)
    return n ** (spec.alpha / exps.alpha0) * (j(z_a) - j(m))


def test_criterion_11_tail_decay_rates():
    spec = SequenceSpec(alpha=0.25, **SEQ1)
    g, exps = gl_polynomial(spec)
    a = xbar(g).value + 0.5
    report = mdp_rate_estimate(spec, a, [500, 1000, 2000, 4000])
    target = report.target
    # part 1: a row saturates exactly when its tail
    # {|S_n| >= a n^(1 - theta alpha)} is empty, since |S_n| <= n
    gamma = exps.theta * spec.alpha
    sat_ok = all(r.saturated == (a > r.n ** gamma) for r in report.rows)
    live = [r for r in report.rows if not r.saturated]
    rates = [r.rate_est for r in live]
    gaps = [abs(r - target) for r in rates]
    trending = all(x > y for x, y in zip(gaps, gaps[1:]))
    # part 2: exact rate against the finite-n rate; the difference is the
    # prefactor term, of order log n / n^u
    finite = [_finite_n_rate(spec, a, r.n) for r in live]
    diffs = [x - y for x, y in zip(rates, finite)]
    law_ok = (all(x > y for x, y in zip(diffs, diffs[1:]))
              and abs(diffs[-1]) < 0.15 * target)
    # part 3: finite-n rate against its limit; the gap decays like n^-alpha
    far = [_finite_n_rate(spec, a, 10**e) for e in range(4, 17, 2)]
    far_gaps = [abs(r - target) for r in far]
    limit_rel = abs(aitken_limit(far[-3:]) / target - 1)
    limit_ok = (all(x > y for x, y in zip(far_gaps, far_gaps[1:]))
                and limit_rel < 1e-4)
    verdicts = "/".join("PASS" if ok else "FAIL"
                        for ok in (trending, sat_ok, law_ok, limit_ok))
    _report(11, "moderate-deviation rate band",
            sat_ok and trending and law_ok and limit_ok,
            f"n = {live[-1].n}: rate {rates[-1]:.3f}, R_n {finite[-1]:.3f}, "
            f"target {target:.3f}; R_n limit rel err {limit_rel:.1e}; "
            f"trend/parts 1/2/3 {verdicts}")


def test_criterion_12_weak_limit():
    spec = SequenceSpec(alpha=0.8, **SEQ1)
    dists = [weak_limit_distance(spec, n) for n in (250, 1000, 4000)]
    ok = all(a > b for a, b in zip(dists, dists[1:])) and dists[-1] < 0.05
    _report(12, "weak limit to the scaling density", ok,
            "distances " + ", ".join(f"{d:.4f}" for d in dists))


def test_criterion_13_seq6_guardrails_and_regimes():
    with pytest.raises(UnsupportedSequenceError):
        g_tilde(seq6(0.3))
    with pytest.raises(UnsupportedSequenceError):
        run_finite_size_asymptotics(seq6(0.3), [50, 100])  # above alpha0 = 1/5
    guards = True

    ns = [500, 2000, 8000, 32000]
    below = run_finite_size_asymptotics(seq6(0.15), ns)
    xb = below.constants.x_bar
    scaled = [r.scaled_e for r in below.rows]
    below_trend = abs(scaled[-1] - xb) < abs(scaled[0] - xb)
    below_rel = abs(aitken_limit(scaled) / xb - 1)
    last = below.rows[-1]
    below_ratio = last.e_finite / last.m_thermo
    below_ok = below_trend and below_rel < 0.05 and 0.8 <= below_ratio <= 1.25

    at = run_finite_size_asymptotics(seq6(0.2), ns)
    at_rel = abs(aitken_limit([r.scaled_e for r in at.rows]) / at.constants.z_bar - 1)
    at_ok = at_rel < 0.05

    _report(13, "seq6 guardrails and regimes", guards and below_ok and at_ok,
            f"below rel {below_rel:.4f}, at rel {at_rel:.4f}")


def test_criterion_14_cli_determinism(tmp_path):
    import json
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(dict(SEQ1, alpha=0.3)), encoding="utf-8")
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = main(["sequence-run", "--spec", str(spec_path),
                     "--n", "50,100,200", "--seed", "17", "-o", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    _report(14, "deterministic artifacts", outputs[0] == outputs[1])
