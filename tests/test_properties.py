"""Property tests: contracts of the phase solvers, the exact law and the
Metropolis chain on points that hypothesis draws.

Every test is derandomized and keeps no example database, so a run draws the
same points on every machine; max_examples bounds the suite's added time.
"""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from lattice_reference import reference_chain

from bclab import ModelParams, finite_size_law, mc_estimate
from bclab.minimize import magnetization
from bclab.model import BETA_MAX
from bclab.phase import BETA_C, CURVE_TOL, PhaseRegion, classify, first_order_k, second_order_k

SETTINGS = dict(derandomize=True, database=None, deadline=None)
BETAS = st.floats(0.05, 20.0)
ABOVE_BETA_C = st.floats(-10.0, math.log10(BETA_MAX - BETA_C)).map(lambda u: BETA_C + 10.0 ** u)
RATIOS = st.floats(0.3, 3.0)   # K / K(beta)


def curve_k(beta):
    """The transition curve at beta: K(beta) up to beta_c, K1 beyond."""
    return second_order_k(beta) if beta <= BETA_C else first_order_k(beta)


@settings(max_examples=150, **SETTINGS)
@given(BETAS, RATIOS, st.floats(1e-9, 1.0))
def test_magnetization_is_monotone_in_k(beta, ratio, gap):
    kappa = ratio * second_order_k(beta)
    low, high = ModelParams(beta, kappa), ModelParams(beta, kappa * (1.0 + gap))
    assert 0.0 <= magnetization(low) <= magnetization(high) <= 1.0


@settings(max_examples=150, **SETTINGS)
@given(BETAS, st.sampled_from([-1.0, 1.0]), st.floats(-11.0, -0.5))
def test_classify_agrees_with_magnetization_off_the_band(beta, side, u):
    # 10^-11 lies past the band of 2 CURVE_TOL around the curve, where the
    # well report can disagree with the K1 rule
    kappa = curve_k(beta) * (1.0 + side * 10.0 ** u)
    assume(abs(kappa - curve_k(beta)) > 2 * CURVE_TOL)
    params = ModelParams(beta, kappa)
    m, region = magnetization(params), classify(params)
    assert region is (PhaseRegion.COEXISTENCE if m > 0.0 else PhaseRegion.SINGLE_PHASE)
    assert (m > 0.0) == (side > 0.0)


@settings(max_examples=100, **SETTINGS)
@given(ABOVE_BETA_C)
def test_first_order_k_keeps_its_well_contract(beta):
    # a well at K1 and at every float 8 or more ulps above it, none 8 or more
    # ulps below; between, the report may flicker
    k1 = first_order_k(beta)
    assert magnetization(ModelParams(beta, k1)) > 0.0
    for direction, has_well in ((math.inf, True), (0.0, False)):
        k = k1
        for step in range(1, 41):
            k = math.nextafter(k, direction)
            if step >= 8:
                assert (magnetization(ModelParams(beta, k)) > 0.0) is has_well, (beta, step)


@settings(max_examples=100, **SETTINGS)
@given(st.integers(1, 3000), BETAS, RATIOS)
def test_law_is_normalized_and_mirrored(n, beta, ratio):
    law = finite_size_law(n, ModelParams(beta, ratio * second_order_k(beta)))
    assert law.log_weights.shape == (2 * n + 1,)
    assert (law.log_weights == law.log_weights[::-1]).all()
    assert abs(math.fsum(law.probabilities()) - 1.0) <= 1e-12


@settings(max_examples=150, **SETTINGS)
@given(st.integers(1, 2000), BETAS, RATIOS, st.integers(0, 2**32))
def test_chain_equals_the_chain_that_visits_every_step(n, beta, ratio, seed):
    params = ModelParams(beta, ratio * second_order_k(beta))
    assert mc_estimate(n, params, sweeps=20, seed=seed) == reference_chain(
        n, params, sweeps=20, seed=seed)
