"""The adaptive 21-point Gauss-Kronrod quadrature behind weighted_ratio: an
integral it cannot resolve raises QuadratureError, and limit_constant meets
1e-12 against 50-digit mpmath."""

import pytest
from mp_reference import exp_poly_abs_moment_mp

from bclab import (ModelParams, QuadratureError, g_tilde, gl_polynomial, hs_rhs,
                   limit_constant, spec_from_json)
from bclab.quadrature import weighted_ratio

README_SEQ1 = {"kind": "seq1", "alpha": 0.3, "beta": 1.0, "b": 0, "k": 1.0}


def test_non_integrable_singularity_raises():
    # 1/3 is no node: the nodes are irrational multiples of dyadic panels
    with pytest.raises(QuadratureError, match="did not converge"):
        weighted_ratio(lambda x: 1.0 / abs(x - 1.0 / 3.0), lambda x: -x * x, 8.0)


def test_vanishing_weight_integral_raises():
    # at n = 10^10 the wells of e^(-n (G - min G)) are about 1e-5 wide and lie
    # on panel edges, where no node sees them: the weight integrates to 0
    with pytest.raises(QuadratureError,
                       match=r"^weighted_ratio: the weight integral .* is 0\.0"):
        hs_rhs(10**10, ModelParams(1.0, 1.3), 0.0, lambda x: x**2)


@pytest.mark.parametrize("constant", ["ybar", "zbar"])
def test_limit_constant_matches_mpmath(constant):
    # the README seq1 spec: ybar from g~ = c4 x^4 above alpha0, zbar from the
    # full polynomial g at alpha0 = 1/2
    spec = spec_from_json(dict(README_SEQ1, alpha=0.8 if constant == "ybar" else "1/2"))
    poly = g_tilde(spec) if constant == "ybar" else gl_polynomial(spec)[0]
    reference = exp_poly_abs_moment_mp(poly.c2, poly.c4, poly.c6)
    assert limit_constant(poly) == pytest.approx(reference, rel=1e-12)
