"""The exact law, its absolute moment and its tail, and the Metropolis
acceptance tables and chain, in the forms that faster or leaner ones
replaced, kept as oracles: the rho recurrence with integer coefficients and
the compensated sums over the full lattice -n .. n, the fsum over the full
lattice, the tail masked on the full lattice, the tables built from
whole-array temporaries, and the chain that visits every step. Log-sums are
SciPy's special.logsumexp, independent of bclab's own."""

import math
from array import array

import numpy as np
from scipy.special import logsumexp

from bclab import finite_size
from bclab.finite_size import MIN_BATCHES, McEstimate
from bclab.minimize import magnetization


def integer_rho_law(n, beta, kappa):
    """(log_weights, log_z) of the law as built with the integer-coefficient
    rho recurrence, which the float-buffer recurrence replaced."""
    q = math.exp(-2.0 * beta)
    rho = float(n)
    rhos = [rho]
    for k in range(1, n):
        rho = ((n - k) + q * (2 * n - k + 1) / rho) / (k + 1)
        rhos.append(rho)
    s = np.arange(-1, -n - 1, -1)
    steps = -np.log(rhos[::-1]) - beta * (kappa * (2 * s + 1) / n + 1.0)
    head = np.cumsum(steps)
    prev = np.concatenate(([0.0], head[:-1]))
    b = head - prev
    tail = np.cumsum((prev - (head - b)) + (steps - b))
    head = np.concatenate((head[::-1], [0.0], head))
    tail = np.concatenate((tail[::-1], [0.0], tail))
    top = int(np.argmax(head + tail))
    log_weights = (head - head[top]) + (tail - tail[top])
    return log_weights, float(logsumexp(log_weights))


def full_lattice_abs_moment(law, power, gamma):
    """E|S_n/n^(1-gamma)|^power as the fsum over all of -n .. n, which the
    half-lattice sum replaced."""
    scale = float(law.n) ** (1.0 - gamma)
    with np.errstate(divide="ignore"):
        log_terms = (law.log_weights - law.log_z) + power * np.log(np.abs(law.support()) / scale)
    terms = np.exp(log_terms[np.isfinite(log_terms)])
    return math.fsum(np.sort(terms)[::-1])


def full_lattice_log_tail_mass(law, gamma, a):
    """log P{|S_n/n^(1-gamma)| >= a} as the log-sum over the tail masked on
    all of -n .. n, which the doubled half-lattice sum replaced; -inf for an
    empty tail."""
    threshold = a * float(law.n) ** (1.0 - gamma)
    mask = np.abs(law.support()) >= threshold
    if not mask.any():
        return -np.inf
    return float(logsumexp(law.log_weights[mask])) - law.log_z


def temporary_acceptance_tables(n, beta, kappa):
    """The six Metropolis acceptance tables as built from whole-array numpy
    temporaries, which the in-place fill replaced."""
    s = np.arange(-n, n + 1, dtype=float)
    tables = []
    for old, new in ((1, 0), (1, -1), (-1, 0), (-1, 1), (0, 1), (0, -1)):
        ds = new - old
        dh = (new * new - old * old) - kappa / n * (2.0 * ds * s + ds * ds)
        tables.append(array("d", np.exp(np.minimum(0.0, -beta * dh)).tobytes()))
    return tables


def reference_chain(n, params, sweeps, burn_in=None, seed=0):
    """McEstimate of the Metropolis chain with one loop over every step of
    every sweep, which the chain that first sets aside the steps it certainly
    rejects replaced; the same draws in the same order, so the estimates are
    equal. The tables are read from finite_size._acceptance_tables when called."""
    if burn_in is None:
        burn_in = sweeps // 10
    plus_zero, plus_minus, minus_zero, minus_plus, zero_plus, zero_minus = (
        finite_size._acceptance_tables(n, params.beta, params.kappa))
    rng = np.random.Generator(np.random.PCG64(seed))

    t = 2.0 * params.beta * params.kappa * magnetization(params)
    e_t, e_beta = math.exp(-t), math.exp(-params.beta)
    norm = n / (e_t + e_beta + e_t * e_t * e_beta)
    n_plus, n_minus = round(norm * e_beta), round(norm * e_t * e_t * e_beta)

    first_minus, j = n - n_minus, n + n_plus - n_minus  # n - n_-, S + n
    n_plus_hi, first_minus_hi = n + n_plus, n + first_minus
    samples = np.empty(sweeps)
    for sweep in range(burn_in + sweeps):
        draws = array("q", rng.integers(0, 2 * n, size=n).tobytes())
        uniforms = array("d", rng.random(size=n).tobytes())
        for r, u in zip(draws, uniforms):
            if r < n:
                if r < n_plus:
                    if u < plus_zero[j]:
                        n_plus -= 1
                        n_plus_hi -= 1
                        j -= 1
                elif r >= first_minus:
                    if u < minus_zero[j]:
                        first_minus += 1
                        first_minus_hi += 1
                        j += 1
                elif u < zero_plus[j]:
                    n_plus += 1
                    n_plus_hi += 1
                    j += 1
            elif r < n_plus_hi:
                if u < plus_minus[j]:
                    n_plus -= 1
                    n_plus_hi -= 1
                    first_minus -= 1
                    first_minus_hi -= 1
                    j -= 2
            elif r >= first_minus_hi:
                if u < minus_plus[j]:
                    n_plus += 1
                    n_plus_hi += 1
                    first_minus += 1
                    first_minus_hi += 1
                    j += 2
            elif u < zero_minus[j]:
                first_minus -= 1
                first_minus_hi -= 1
                j -= 1
        if sweep >= burn_in:
            samples[sweep - burn_in] = abs(j - n) / n

    batch_len = sweeps // MIN_BATCHES
    batches = samples[:batch_len * MIN_BATCHES].reshape(MIN_BATCHES, batch_len)
    means = batches.mean(axis=1)
    stderr = float(means.std(ddof=1) / math.sqrt(MIN_BATCHES))
    return McEstimate(mean=float(means.mean()), stderr=stderr, sweeps=sweeps, seed=seed)
