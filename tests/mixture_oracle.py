"""The weak-limit distance from the exact lattice law, an oracle for
bclab.harness.weak_limit_distance, which works from the smoothed density."""

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import ndtr

from bclab import finite_size_law, g_tilde, gl_polynomial, params_at


def mixture_distance(spec, n):
    """Kolmogorov distance from the lattice law: each atom of S_n/n^(1-gamma0)
    is convolved with the smoothing Gaussian, so the finite-n CDF is a probit
    mixture, evaluated on 4001 points of a window that holds every atom with
    mass above 1e-19 plus 8 sigma; the target CDF sums 8-point Gauss-Legendre
    rules over the grid cells."""
    g, exps = gl_polynomial(spec)
    poly = g if spec.alpha <= exps.alpha0 + 1e-12 else g_tilde(spec)
    gamma0 = exps.theta_alpha0
    params = params_at(spec, n)
    law = finite_size_law(n, params)
    probs = law.probabilities()
    keep = probs > 1e-19
    mu, pr = law.support()[keep] / n ** (1 - gamma0), probs[keep]
    sigma = (2 * params.beta * params.kappa) ** -0.5 / n ** (0.5 - gamma0)
    floor, cutoff, _ = poly.weight_window()
    half_width = max(cutoff, np.max(np.abs(mu)) + 8 * sigma)
    grid = np.linspace(-half_width, half_width, 4001)
    cdf_n = sum(ndtr((grid[:, None] - mu[None, i:i + 512]) / sigma) @ pr[i:i + 512]
                for i in range(0, len(mu), 512))
    nodes, weights = leggauss(8)
    half_cell = 0.5 * (grid[1] - grid[0])
    cells = np.exp(floor - poly(grid[:-1, None] + half_cell * (nodes + 1))) @ weights
    cdf_target = np.concatenate(([0.0], np.cumsum(cells)))
    return float(np.max(np.abs(cdf_n - cdf_target / cdf_target[-1])))
