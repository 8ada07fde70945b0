"""The adaptive 21-point Gauss-Kronrod quadrature behind weighted_ratio: an
integral it cannot resolve raises QuadratureError, and limit_constant meets
1e-12 against 50-digit mpmath. The Gaussian-mixture rule of hs_lhs meets
1e-14 against 40-digit mpmath closed forms."""

import mpmath as mp
import numpy as np
import pytest
from mp_reference import exp_poly_abs_moment_mp

from bclab import (EvenPolynomial, QuadratureError, aitken_limit, g_tilde, gl_polynomial,
                   limit_constant, spec_from_json)
from bclab.quadrature import gaussian_mixture_expectation, weighted_ratio

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


def test_aitken_limit_of_a_zero_second_difference_is_the_last_value():
    assert aitken_limit([1.0, 2.0, 3.0]) == 3.0


@pytest.mark.parametrize("constant", ["ybar", "zbar"])
def test_limit_constant_matches_mpmath(constant):
    # the README seq1 spec: ybar from g~ = c4 x^4 above alpha0, zbar from the
    # full polynomial g at alpha0 = 1/2
    spec = spec_from_json(dict(README_SEQ1, alpha=0.8 if constant == "ybar" else "1/2"))
    poly = g_tilde(spec) if constant == "ybar" else gl_polynomial(spec)[0]
    reference = exp_poly_abs_moment_mp(poly.c2, poly.c4, poly.c6)
    assert limit_constant(poly) == pytest.approx(reference, rel=1e-12)


def excess_mp(mean, sigma, c):
    """E (Y - c)^+ for Y ~ N(mean, sigma^2), in the working precision."""
    d = (mean - c) / sigma
    return sigma * mp.npdf(d) + (mean - c) * mp.ncdf(d)


def normal_expectation_mp(name, mean, sigma, j=None):
    """E f(mean + sigma Z) at 40 digits for f = |x|, min(|x|, j) or x^2."""
    with mp.workdps(40):
        mean, sigma = mp.mpf(mean), mp.mpf(sigma)
        if name == "square":
            return mean**2 + sigma**2
        value = excess_mp(mean, sigma, 0) + excess_mp(-mean, sigma, 0)
        if name == "min":
            value -= excess_mp(mean, sigma, j) + excess_mp(-mean, sigma, j)
        return value


# components of a mixture: one sits at 0, and 0.5 + 3 * 0.25 = 1.25 is a
# panel edge of the component at 0.5 when sigma = 0.25
MEANS = np.array([-1.3, -0.5, -0.2, 0.0, 0.45, 0.5, 2.0])
PROBS = np.array([0.05, 0.1, 0.2, 0.3, 0.15, 0.15, 0.05])


class TestGaussianMixture:
    @pytest.mark.parametrize("name, j, kinks, sigma", [
        # kinks inside panels
        ("min", 0.37, (-0.37, 0.0, 0.37), 0.1),
        ("min", 1.0, (-1.0, 0.0, 1.0), 0.7),
        # kinks on a panel edge, and the kink 0 at a component's mean, an edge too
        ("min", 1.25, (-1.25, 0.0, 1.25), 0.25),
        ("abs", None, (0.0,), 0.25),
        # kinks outside every component's window
        ("min", 50.0, (-50.0, 0.0, 50.0), 0.5),
        # doubled and unsorted kinks
        ("abs", None, (0.0, 0.0), 0.1),
        ("min", 1.0, (1.0, 0.0, -1.0, 1.0, 0.0), 0.3),
        # a smooth f, with and without kinks declared
        ("square", None, (), 0.2),
        ("square", None, (-1.0, 0.5), 0.2),
    ])
    def test_matches_mpmath(self, name, j, kinks, sigma):
        f = {"abs": np.abs, "square": np.square,
             "min": lambda x: np.minimum(np.abs(x), j)}[name]
        value = gaussian_mixture_expectation(f, MEANS, PROBS, sigma, kinks=kinks)
        with mp.workdps(40):
            reference = mp.fsum(mp.mpf(p) * normal_expectation_mp(name, m, sigma, j)
                                for m, p in zip(MEANS, PROBS))
        assert abs(value - reference) <= 1e-14 * abs(reference)

    def test_odd_function_vanishes(self):
        # a mixture symmetric about 0
        means, probs = np.concatenate((MEANS, -MEANS)), np.concatenate((PROBS, PROBS)) / 2
        scale = gaussian_mixture_expectation(lambda x: np.abs(x) ** 3, means, probs, 0.3)
        for kinks in ((), (-1.0, 0.0, 1.0)):
            value = gaussian_mixture_expectation(lambda x: x**3, means, probs, 0.3, kinks)
            assert abs(value) <= 1e-15 * scale

    @pytest.mark.parametrize("sigma", [0.0, -0.1])
    def test_sigma_must_be_positive(self, sigma):
        with pytest.raises(ValueError, match="sigma must be > 0"):
            gaussian_mixture_expectation(np.abs, MEANS, PROBS, sigma)
