"""Exact finite-n law of the total spin, its moments and tails, the
Gaussian-smoothing identity that turns spin expectations into integrals
against e^{-n G(y/n^gamma)}, and a Metropolis cross-estimator.

The energy depends only on the occupation counts, so the weight of total spin
s is d_{s+n} e^{beta K s^2 / n}, where d_j is the coefficient of z^j in
(a + z + a z^2)^n with a = e^{-beta}. Differentiating the generating function
gives the three-term recurrence

    a (k + 1) d_{k+1} = (n - k) d_k + a (2n - k + 1) d_{k-1},

run from the edge k = 0 toward the centre k = n, where every term is
positive. It is carried on the ratio rho_k = a d_{k+1}/d_k, so nothing
overflows, and the log-weight steps are summed from the centre outward with
compensation (the weights span up to ~beta n e-folds near coexistence). The
law costs O(n) time and memory.

The Metropolis cross-estimator rests on the same fact: its chain state is the
counts n_+, n_- and the total spin S, not a list of spins, and the acceptance
of each of the six single-site moves is read from one of three tables over S
built once per call, so a step evaluates no exponential. A vectorized pass
sets aside the steps every state near the chain's state rejects, the loop
visits the others and a new pass starts where it leaves that window, so the
cost of a step follows the acceptance rate. At n = 10^4 and beta = 1 on a
2-core x86-64 box, the loop visits 22% of the steps at K = K(1) + 0.4, about
60 ns a step against 140 ns when it visits every step, and 68% at K(1) +
1e-6, about 170 against 180 ns (the site-list chain took about 630 ns).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .minimize import ScaledFreeEnergy, magnetization
from .model import ModelParams, _is_real, check_count
from .quadrature import gaussian_mixture_expectation, weighted_ratio

# the law and its moment take about 113 B per n, and the Metropolis chain about
# 88 B per n (its tables 64 B per n while built), so about 113 MB and 88 MB here
N_MAX = 10**6
MIN_BATCHES = 20


class EnumerationLimitError(RuntimeError):
    """n exceeds N_MAX, the size limit of the exact law and the Metropolis chain."""


def check_n(op: str, n: int) -> int:
    """n as an int in 1..N_MAX, else raise naming op (EnumerationLimitError above)."""
    n = check_count(op, n)
    if n > N_MAX:
        raise EnumerationLimitError(
            f"{op}: n = {n} exceeds N_MAX = {N_MAX}, the memory bound of the "
            "exact law (about 113 B per n) and the Metropolis chain (about 88 B per n)")
    return n


def _check_unit_interval(op: str, name: str, value: float) -> None:
    if not (_is_real(value) and 0.0 <= value < 1.0):
        raise ValueError(f"{op}: {name} must lie in [0, 1), got {value!r}")


def _logsumexp(a: np.ndarray) -> float:
    """log sum e^a, shifted by max a so no exponential overflows.

    The m terms equal to the maximum are held out and the rest enter through
    log1p, which keeps digits when the maxima dominate: the arithmetic of
    SciPy's special.logsumexp, so log_z is unchanged to the bit.
    """
    top = np.max(a)
    peak = a == top
    rest = np.exp(a - top)
    rest[peak] = 0.0
    m = float(np.count_nonzero(peak))
    return float(np.log1p(np.sum(rest) / m) + np.log(m) + top)


@dataclass(frozen=True)
class SpinLawExact:
    """Exact law of S_n in log space: unnormalized log weights over -n..n."""

    n: int
    log_weights: np.ndarray  # index s + n, mirrored exactly across s = 0
    log_z: float

    def support(self) -> np.ndarray:
        return np.arange(-self.n, self.n + 1)

    def probabilities(self) -> np.ndarray:
        return np.exp(self.log_weights - self.log_z)


@dataclass(frozen=True)
class McEstimate:
    """Metropolis estimate of E|S_n/n| with a batch-means standard error."""

    mean: float
    stderr: float
    sweeps: int
    seed: int


def _ratios(n: int, beta: float) -> array:
    """rho_0 .. rho_{n-1} of the recurrence, rho_0 = n and
    rho_k = ((n - k) + q (2n - k + 1)/rho_{k-1})/(k + 1) with q = a^2.

    The per-k coefficients are read as floats through memoryviews of float64
    arrays: n - k and k + 1 are integers below 2^53, and q (2n - k + 1) is one
    rounded product, as with the integers, so each step rounds the same and
    gives the same rho to the bit, about 1.5x faster than integer arithmetic
    in the loop.
    """
    q = math.exp(-2.0 * beta)
    k = np.arange(1.0, n)
    rho = float(n)
    rhos = array("d", [rho])
    for a, b, c in zip(memoryview(n - k), memoryview(q * (2 * n + 1 - k)),
                       memoryview(k + 1.0)):
        rho = (a + b / rho) / c
        rhos.append(rho)
    return rhos


@lru_cache(maxsize=1)
def _law_cached(n: int, beta: float, kappa: float) -> SpinLawExact:
    rhos = _ratios(n, beta)
    rhos.reverse()   # in place: np.log of a strided view may round differently
    # log p(s) - log p(s + 1) for s = -1 .. -n; kappa (2s + 1) is rounded per
    # step, so no rounding of beta kappa is repeated n times
    s = np.arange(-1, -n - 1, -1)
    steps = -np.log(np.frombuffer(rhos)) - beta * (kappa * (2 * s + 1) / n + 1.0)
    # Compensated prefix sum over |s| = 0 .. n: the partial sums cross valleys
    # up to ~beta n e-folds deep, so each rounding of np.cumsum (a sequential
    # accumulate) is recovered exactly by TwoSum and summed into a tail.
    head, tail = np.zeros(n + 1), np.zeros(n + 1)
    np.cumsum(steps, out=head[1:])
    b = head[1:] - head[:-1]
    np.cumsum((head[:-1] - (head[1:] - b)) + (steps - b), out=tail[1:])
    # the peak that argmax over -n .. n finds: the last maximum over |s|
    top = n - int(np.argmax((head + tail)[::-1]))
    half = (head - head[top]) + (tail - tail[top])
    log_weights = np.concatenate((half[:0:-1], half))
    log_weights.flags.writeable = False
    return SpinLawExact(n=n, log_weights=log_weights,
                        log_z=_logsumexp(log_weights))


def finite_size_law(n: int, params: ModelParams) -> SpinLawExact:
    """Exact law of the total spin S_n under the canonical ensemble at (beta, K).

    O(n) time and memory, about 0.4 s and 113 MB at n = 10^6; raises
    EnumerationLimitError for n above N_MAX = 10^6. Against 50-digit
    mpmath, log p_s is within 1e-12 wherever p_s > 1e-30 and E|S_n/n| within
    1e-12 relative for n <= 20000 and beta from 0.05 to 20; both are within
    1e-11 at n = 10^6, beta = 20 next to coexistence.
    """
    return _law_cached(check_n("finite_size_law", n), params.beta, params.kappa)


def abs_moment(law: SpinLawExact, power: float = 1.0, gamma: float = 0.0) -> float:
    """E |S_n / n^(1-gamma)|^power, summed exactly over the lattice.

    Only s = 1 .. n is summed: the log weights are mirrored exactly across
    s = 0, so the terms at s and -s are the same float, and s = 0 adds
    nothing. math.fsum is correctly rounded and doubling a float is exact, so
    the fsum of the doubled half-lattice terms is the fsum of the full lattice
    to the bit; so is the fsum without the terms that underflow to 0. The
    terms are fed in descending magnitude, which keeps fsum's list of partials
    short, through a memoryview, which yields floats: at N_MAX the sum takes
    about 3 ms, against 90 ms over every term of the array.
    """
    if not (_is_real(power) and power > 0):
        raise ValueError(f"abs_moment: power must be finite and > 0, got {power!r}")
    _check_unit_interval("abs_moment", "gamma", gamma)
    n = law.n
    scale = float(n) ** (1.0 - gamma)
    log_terms = (law.log_weights[n + 1:] - law.log_z) + power * np.log(np.arange(1, n + 1) / scale)
    terms = np.exp(log_terms)
    terms = np.sort(terms[terms > 0.0])[::-1]
    return math.fsum(memoryview(2.0 * terms))


def log_tail_mass(law: SpinLawExact, gamma: float, a: float) -> float:
    """log P{ |S_n / n^(1-gamma)| >= a }: 0.0 at a = 0, -inf for a beyond the
    lattice ceiling n^gamma.

    The tail |s| >= k is twice the tail s >= k, the log weights being mirrored
    exactly across s = 0, so only s = k .. n is summed. Against the 50-digit
    mpmath law it is within 1e-12 max(1, |log P|) for n <= 2000 and beta from
    0.05 to 20 (1.8e-14 at most on the tests' grid).
    """
    _check_unit_interval("log_tail_mass", "gamma", gamma)
    if not (_is_real(a) and a >= 0):
        raise ValueError(f"log_tail_mass: threshold a must be >= 0, got {a!r}")
    n = law.n
    threshold = a * float(n) ** (1.0 - gamma)
    if threshold == 0.0:
        return 0.0
    if threshold > n:
        return -math.inf
    return _logsumexp(law.log_weights[n + math.ceil(threshold):]) + math.log(2.0) - law.log_z


def hs_lhs(n: int, params: ModelParams, gamma_bar: float, f, kinks=()) -> float:
    """E f(S_n/n^(1-gb) + W_n/n^(1/2-gb)) with W_n ~ N(0, 1/(2 beta K)).

    The spin part is exact: the atoms of the law above probability 1e-22,
    each convolved with its Gaussian, form a mixture that
    gaussian_mixture_expectation integrates in one pass (declare the kinks
    of f). Equals hs_rhs by the Gaussian-smoothing identity, which the test
    suite uses as the primary correctness oracle of this module: within
    1e-12 relative up to n = N_MAX for |x| and min(|x|, j) (3e-14 measured).
    """
    n = check_n("hs_lhs", n)
    _check_unit_interval("hs_lhs", "gamma_bar", gamma_bar)
    law = finite_size_law(n, params)
    probs = law.probabilities()
    keep = probs > 1e-22
    means = law.support()[keep] / float(n) ** (1.0 - gamma_bar)
    sigma = (2.0 * params.beta * params.kappa) ** -0.5 / float(n) ** (0.5 - gamma_bar)
    return gaussian_mixture_expectation(f, means, probs[keep], sigma, kinks=kinks)


def hs_rhs(n: int, params: ModelParams, gamma_bar: float, f, kinks=()) -> float:
    """Integral of f against the density proportional to e^{-n G(x/n^gb)}.

    The exponent is ScaledFreeEnergy(params, n, n^gb), which windows the weight
    at its wells (weighted_ratio); declare the kinks of f.
    """
    n = check_count("hs_rhs", n)
    _check_unit_interval("hs_rhs", "gamma_bar", gamma_bar)

    def fs(x: float) -> float:
        return float(f(np.asarray([x]))[0])

    return weighted_ratio(fs, ScaledFreeEnergy(params, n, float(n) ** gamma_bar), kinks)


def _acceptance_tables(n: int, beta: float, kappa: float) -> list[array | memoryview]:
    """min(1, e^{-beta dH}) of the moves +1->0, +1->-1, -1->0, -1->+1, 0->+1,
    0->-1 at every total spin S in [-n, n] (index S + n); dH = (new^2 - old^2)
    - (K/n)(2 S ds + ds^2), ds = new - old. -1->0, -1->+1 and 0->-1 at S are
    +1->0, +1->-1 and 0->+1 at -S to the bit: reversed views of those float64
    tables, each clamped monotone in S as e^{-beta dH} is and exp may not be."""
    s = np.arange(-n, n + 1, dtype=float)
    tables = [array("d", [0.0]) * (2 * n + 1) for _ in range(3)]
    for table, (old, new) in zip(tables, ((1, 0), (1, -1), (0, 1))):
        ds = new - old
        # in place: freed table-sized temporaries left the peak RSS to heap layout
        x = np.frombuffer(table)
        np.multiply(2.0 * ds, s, out=x)
        x += ds * ds
        x *= kappa / n
        np.subtract(new * new - old * old, x, out=x)
        np.exp(np.minimum(0.0, np.multiply(-beta, x, out=x), out=x), out=x)
        (np.maximum if ds > 0 else np.minimum).accumulate(x, out=x)
    plus_zero, plus_minus, zero_plus = tables
    return [plus_zero, plus_minus, memoryview(plus_zero)[::-1], memoryview(plus_minus)[::-1],
            zero_plus, memoryview(zero_plus)[::-1]]


def _walk(n: int, draws, uniforms, n_plus: int, first_minus: int,
          tables: list[array | memoryview]) -> tuple[int, int]:
    """The state (n_+, n - n_-) that the Metropolis steps (r, u) of draws and
    uniforms lead to from (n_plus, first_minus).

    Site i holds +1 if i < n_+, -1 if i >= n - n_-, and 0 otherwise. A draw r
    in [0, 2n) picks site r mod n and, by r >= n, which of its two other spin
    values is proposed, so the bounds are also kept shifted by n.
    """
    plus_zero, plus_minus, minus_zero, minus_plus, zero_plus, zero_minus = tables
    j = n_plus + first_minus   # S + n
    n_plus_hi, first_minus_hi = n + n_plus, n + first_minus
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
    return n_plus, first_minus


def _walk_within(n: int, draws, uniforms, start: tuple[int, int],
                 tables: list[array | memoryview], half: int) -> tuple[tuple[int, int], int]:
    """The state _walk reaches and the number of steps it walked, fewer than
    len(draws) if it reached the edge of the window of half-width half around
    start.

    The steps run in stretches no longer than the slack left to the edge: a
    step moves n_plus and first_minus by at most 1 each, so every state of a
    stretch lies in the window without a check per step.
    """
    state, done = start, 0
    while done < len(draws):
        slack = half - max(abs(state[0] - start[0]), abs(state[1] - start[1]))
        if slack == 0:
            break
        state = _walk(n, draws[done:done + slack], uniforms[done:done + slack], *state, tables)
        done = min(done + slack, len(draws))
    return state, done


def _uncertain_steps(n: int, draws: np.ndarray, uniforms: np.ndarray,
                     tables: list[array | memoryview], start: tuple[int, int],
                     half: int) -> np.ndarray:
    """Indices of the steps that some state within half of start might accept.

    Every other step is rejected from every state (n_plus, first_minus) of
    the window [p - half, p + half] x [f - half, f + half] around start =
    (p, f), clamped to [0, n]: its site r mod n lies in the same region (+1, 0
    or -1) for all of them, and u is at or above the largest acceptance of its
    move over the window's range of j = n_plus + first_minus, which is the
    value at one end, the tables being monotone in S.
    """
    p, f = start
    plus_lo, plus_hi = max(p - half, 0), min(p + half, n)
    minus_lo, minus_hi = max(f - half, 0), min(f + half, n)
    plus_zero, plus_minus, minus_zero, minus_plus, zero_plus, zero_minus = (
        max(t[plus_lo + minus_lo], t[plus_hi + minus_hi]) for t in tables)
    # for every state in the window, r < plus_lo is a +1 site, plus_hi <= r <
    # minus_lo a 0 site and minus_hi <= r < n a -1 site; the ranges between are
    # undecided (limit inf), and r >= n repeats them shifted by n
    zero_hi = max(minus_lo, plus_hi)
    widths = [plus_lo, plus_hi - plus_lo, zero_hi - plus_hi, minus_hi - zero_hi, n - minus_hi] * 2
    region = np.repeat(np.arange(10, dtype=np.uint8), widths)
    limit = np.array([plus_zero, math.inf, zero_plus, math.inf, minus_zero,
                      plus_minus, math.inf, zero_minus, math.inf, minus_plus])
    return np.flatnonzero(uniforms < limit[region[draws]])


def mc_estimate(n: int, params: ModelParams, sweeps: int,
                burn_in: int | None = None, seed: int = 0) -> McEstimate:
    """Single-site Metropolis estimate of E|S_n/n|.

    Each step picks a uniform site and a uniform proposal among the two other
    spin values (a symmetric proposal, so acceptance min(1, e^{-beta dH})
    satisfies detailed balance). The energy depends only on the counts, so
    the chain runs on (n_+, n_-, S) with the sites ordered +1 first and -1
    last, and the acceptance of each move is read from a table over S built
    once per call.
    Chains start in the well, at the rounded occupations of the single-spin
    law tilted by t = 2 beta K m(beta, K); burn_in (default sweeps // 10)
    sweeps of n steps are discarded, then |S_n/n| is recorded once per sweep
    and the standard error comes from 20 batch means. Identical (n, params,
    sweeps, burn_in, seed) reproduce the estimate exactly.

    Each sweep draws its n sites and uniforms, sets aside the steps that
    every state within 2 sqrt(n) of the chain's state in n_+ and in n - n_-
    rejects, and walks the others. Should the walk come to the edge of that
    window, a new pass sets aside steps around the state there, from the first
    kept step not yet walked: the steps skipped before it are rejected from
    every state of the old window, the walk's last state included. So every
    draw is read in order and decided as by one loop over all steps, and the
    estimate is the same to the bit. At n = 10^4 the loop visits about 22% of
    the steps at beta = 1, K = K(1) + 0.4 and 68% at K(1) + 1e-6; the module
    docstring gives the cost per step. The three tables hold 48 B per n (64 B
    per n while built) and one sweep at most 40 B per n more, so n is bounded
    by N_MAX.
    """
    n = check_n("mc_estimate", n)
    sweeps = check_count("mc_estimate", sweeps, "sweeps", MIN_BATCHES)
    seed = check_count("mc_estimate", seed, "seed", 0)
    burn_in = sweeps // 10 if burn_in is None else check_count("mc_estimate", burn_in, "burn_in", 0)
    tables = _acceptance_tables(n, params.beta, params.kappa)
    rng = np.random.Generator(np.random.PCG64(seed))

    # n_+- = n e^{+-t - beta}/(1 + e^{t - beta} + e^{-t - beta}), divided
    # through by e^t so that nothing overflows
    t = 2.0 * params.beta * params.kappa * magnetization(params)
    e_t, e_beta = math.exp(-t), math.exp(-params.beta)
    norm = n / (e_t + e_beta + e_t * e_t * e_beta)
    n_plus, n_minus = round(norm * e_beta), round(norm * e_t * e_t * e_beta)

    state, half = (n_plus, n - n_minus), 2 * math.isqrt(n)
    samples = np.empty(sweeps)
    for sweep in range(burn_in + sweeps):
        draws = rng.integers(0, 2 * n, size=n)
        uniforms = rng.random(size=n)
        while len(draws):
            kept = _uncertain_steps(n, draws, uniforms, tables, state, half)
            state, walked = _walk_within(n, memoryview(draws[kept]), memoryview(uniforms[kept]),
                                         state, tables, half)
            rest = kept[walked] if walked < len(kept) else n
            draws, uniforms = draws[rest:], uniforms[rest:]
        if sweep >= burn_in:
            samples[sweep - burn_in] = abs(sum(state) - n) / n

    batch_len = sweeps // MIN_BATCHES
    batches = samples[:batch_len * MIN_BATCHES].reshape(MIN_BATCHES, batch_len)
    means = batches.mean(axis=1)
    stderr = float(means.std(ddof=1) / math.sqrt(MIN_BATCHES))
    return McEstimate(mean=float(means.mean()), stderr=stderr,
                      sweeps=sweeps, seed=seed)
