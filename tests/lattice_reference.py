"""The exact law, its absolute moment and its tail, and the Metropolis
acceptance tables, in the forms that faster or leaner ones replaced, kept as
oracles: the rho recurrence with integer coefficients and the compensated
sums over the full lattice -n .. n, the fsum over the full lattice, the tail
masked on the full lattice, and the tables built from whole-array
temporaries."""

import math
from array import array

import numpy as np

from bclab.finite_size import _logsumexp


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
    return log_weights, _logsumexp(log_weights)


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
    return _logsumexp(law.log_weights[mask]) - law.log_z


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
