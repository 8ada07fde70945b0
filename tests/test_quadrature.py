"""The adaptive 21-point Gauss-Kronrod quadrature behind weighted_ratio: an
integral it cannot resolve raises QuadratureError, and limit_constant meets
1e-12 against 50-digit mpmath."""

import pytest
from mp_reference import exp_poly_abs_moment_mp

from bclab import (EvenPolynomial, QuadratureError, g_tilde, gl_polynomial,
                   limit_constant, spec_from_json)
from bclab.quadrature import weighted_ratio

README_SEQ1 = {"kind": "seq1", "alpha": 0.3, "beta": 1.0, "b": 0, "k": 1.0}


def test_non_integrable_singularity_raises():
    # 1/3 is no node: the nodes are irrational multiples of dyadic panels; the
    # weight e^(-x^2) is cut at 8
    with pytest.raises(QuadratureError, match="did not converge"):
        weighted_ratio(lambda x: 1.0 / abs(x - 1.0 / 3.0), EvenPolynomial(c2=1.0))


def test_vanishing_weight_integral_raises():
    # wells at +-1 about 5e-5 wide, at the break points +-1 where no node sees
    # them, since a polynomial's window gives its wells no panels of their own
    with pytest.raises(QuadratureError,
                       match=r"^weighted_ratio: the weight integral .* is 0\.0"):
        weighted_ratio(abs, EvenPolynomial(c2=-1e8, c4=5e7))


@pytest.mark.parametrize("constant", ["ybar", "zbar"])
def test_limit_constant_matches_mpmath(constant):
    # the README seq1 spec: ybar from g~ = c4 x^4 above alpha0, zbar from the
    # full polynomial g at alpha0 = 1/2
    spec = spec_from_json(dict(README_SEQ1, alpha=0.8 if constant == "ybar" else "1/2"))
    poly = g_tilde(spec) if constant == "ybar" else gl_polynomial(spec)[0]
    reference = exp_poly_abs_moment_mp(poly.c2, poly.c4, poly.c6)
    assert limit_constant(poly) == pytest.approx(reference, rel=1e-12)
