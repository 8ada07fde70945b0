"""Timings of the equilibrium solvers, the Metropolis estimator, the exact
spin law, the quadrature layer and one CLI command, each stored with an
accuracy figure for the same call in the benchmark's extra_info.

The Metropolis chain and the law run at beta = 1, K = K(1) + 0.4, the
ordered-phase point of the mc-crosscheck workload, where |S/n| sits near 0.82,
at n = 10^4; the chain also runs on the n = 4000 row of the README seq1 spec,
below the size from which it sets aside its certain rejections. Both record
the share of steps the chain's loop visits.
magnetization runs there and at K(1) + 1e-6, where m is about 1.8e-3 and
the stationary tilt is small; first_order_k runs at three beta of the
phase-curve grid's first-order range and at beta_c + 1e-6 and + 1e-10, where
the descent starts at the series root of the well depth. classify runs at beta = 2, K = 0.99 K1 and 1.01 K1,
where its two well probes decide without a K1 solve, and at beta = 1.5
within 5e-13 of K1, where it solves K1 and must name the first-order curve;
K1 there is checked against 50-digit mpmath. These three solvers each run
warm, at one beta every round, and cold, each round starting with an empty
per-beta cache of minimize's Tilts. limit_constant runs on ybar of the
README seq1 spec (the weight exp(-c4 x^4)) and on zbar of the same spec at
alpha0 = 1/2, against 50-digit mpmath; hs_rhs runs at the criterion-06 point
beta = 1, K = 1.5, n = 200, gamma_bar = 0.2, against hs_lhs, and hs_lhs runs
there with min(|x|, 1) and at n = 10^5 with |x|, each against hs_rhs;
weak_limit_distance runs on the README seq1 spec at alpha = 0.8 and n = 4000,
against the lattice-law mixture of tests/mixture_oracle.py. params_at, which
every sequence row calls, runs on the README seq1 spec at n = 4000, its K_n
against 50-digit mpmath, with the share of each call that its validate takes. Past the exact
law, on the same spec, hs_rhs runs at n = 10^13, gamma_bar = 1/4 against the
limit second moment Gamma(3/4)/(Gamma(1/4) sqrt(c4)) = 0.8767448, and
weak_limit_distance at n = 10^16 against the n^-(alpha - 1/2) trend from
n = 10^14, where the exact law is out of reach. abs_moment runs on the
Metropolis point's law at n = 8000, against the 50-digit mpmath law, and at
N_MAX, against the fsum over the full lattice, which it must equal to the
bit. log_tail_mass runs on the same laws, at P{|S_n/n| >= 0.9} past the mode
|S/n| = 0.82: at n = 8000 against the 50-digit mpmath law, at N_MAX against
the log-sum of the tail masked on the full lattice. The CLI figures are the
README's seq1 sequence-run call, with no flag and with --threads 2 (which
must read the same: rows always run serially), and a cold bclab magnetize
call through cli.main, in a fresh interpreter, against 50-digit mpmath. The import figure is a fresh interpreter importing
bclab, the start-up every CLI call pays. The cold phase-diagram figure is a
fresh interpreter importing bclab.cli and writing the README's 100-point
phase diagram, its last K1 against 50-digit mpmath. These three record
whether numpy was loaded. The N_MAX figure is a fresh
interpreter writing the finite-size CSV at n = 10^6 through cli.main, with its
peak RSS, against the sum of the written probabilities; beside it, a fresh
interpreter runs bclab mc at n = 10^6 with 20 sweeps, with its peak RSS,
against the exact law. Acceptance criteria
03, 09 and 13 are timed end to end as the suite runs them, each next to the
figures it gates on, at full precision: the final gap of K1 to K(beta_c)
(and K1 there against mpmath), the Aitken-extrapolated relative error of the
scaled moment against ybar, and those against xbar and zbar along seq6.
"""

import json
import math
import os
import statistics
import subprocess
import sys
import timeit

import mpmath as mp
import numpy as np
import pytest
import test_acceptance
from lattice_reference import full_lattice_abs_moment, full_lattice_log_tail_mass
from mixture_oracle import mixture_distance
from mp_reference import (exp_poly_abs_moment_mp, first_order_k_mp, log_spin_weight_mp,
                          magnetization_mp, spin_law_mp)

import bclab
from bclab import (N_MAX, ModelParams, SequenceSpec, abs_moment, aitken_limit, cli,
                   finite_size, finite_size_law, g_tilde, gl_polynomial, hs_lhs, hs_rhs,
                   limit_constant, mc_estimate, minimize, params_at,
                   run_finite_size_asymptotics, spec_from_json, validate,
                   weak_limit_distance, xbar)
from bclab.finite_size import log_tail_mass
from bclab.minimize import magnetization
from bclab.phase import BETA_C, PhaseRegion, classify, first_order_k, second_order_k

PARAMS = ModelParams(1.0, second_order_k(1.0) + 0.4)
NEAR_CURVE = ModelParams(1.0, second_order_k(1.0) + 1e-6)
MC_N = 10_000
MC_ROW_N = 4000
MC_SWEEPS = 60     # plus the default burn-in of 6: 66 sweeps of n steps
MC_SEED = 1
LAW_N = 20_000
TAIL_A = 0.9
README_SEQ1 = {"kind": "seq1", "alpha": 0.3, "beta": 1.0, "b": 0, "k": 1.0}
README_N = "250,500,1000,2000,4000"


def visited_share(n, params, sweeps, seed):
    """Share of a chain's steps that the Metropolis loop visits: the steps fed
    to finite_size._walk over all steps. A bclab without _walk runs the loop
    inside mc_estimate over every step."""
    walk = getattr(finite_size, "_walk", None)
    if walk is None:
        return 1.0
    fed = []

    def counting(n, draws, *rest):
        fed.append(len(draws))
        return walk(n, draws, *rest)

    finite_size._walk = counting
    try:
        mc_estimate(n, params, sweeps, seed=seed)
    finally:
        finite_size._walk = walk
    return sum(fed) / (n * (sweeps + sweeps // 10))


def bench_chain(benchmark, n, params):
    est = benchmark.pedantic(mc_estimate, args=(n, params, MC_SWEEPS),
                             kwargs={"seed": MC_SEED}, rounds=5, iterations=1)
    exact = abs_moment(finite_size_law(n, params))
    z = (est.mean - exact) / est.stderr
    steps = n * (MC_SWEEPS + MC_SWEEPS // 10)
    benchmark.extra_info.update(
        n=n, mean=est.mean, stderr=est.stderr, exact=exact, z=z, steps=steps,
        visited_share=visited_share(n, params, MC_SWEEPS, MC_SEED),
        ns_per_step=benchmark.stats.stats.median / steps * 1e9)
    assert abs(z) <= 6


def test_mc_estimate(benchmark):
    # above finite_size.SKIP_MIN_N: the pre-pass sets most steps aside
    bench_chain(benchmark, MC_N, PARAMS)


def test_mc_estimate_seq1_row(benchmark):
    # below finite_size.SKIP_MIN_N: the loop visits every step
    bench_chain(benchmark, MC_ROW_N, params_at(spec_from_json(README_SEQ1), MC_ROW_N))


def test_finite_size_law(benchmark):
    # finite_size_law memoizes by (n, beta, K); every round starts cold
    law = benchmark.pedantic(finite_size_law, args=(LAW_N, PARAMS),
                             setup=finite_size._law_cached.cache_clear,
                             rounds=10, iterations=1)
    log_p = law.log_weights - law.log_z
    mode = int(np.argmax(log_p)) - LAW_N
    # log p(s) - log p(mode) against 50-digit mpmath, normalization-free
    offsets = (-200, -50, 50, 200)
    with mp.workdps(60):
        ref_mode = log_spin_weight_mp(LAW_N, mode, PARAMS.beta, PARAMS.kappa)
        ref = {d: float(log_spin_weight_mp(LAW_N, mode + d, PARAMS.beta, PARAMS.kappa)
                        - ref_mode) for d in offsets}
    err = max(abs(log_p[LAW_N + mode + d] - log_p[LAW_N + mode] - ref[d]) for d in offsets)
    norm = abs(math.fsum(law.probabilities()) - 1.0)
    benchmark.extra_info.update(
        mode=mode, max_abs_err_log_ratio=err, norm_residual=norm,
        ns_per_state=benchmark.stats.stats.median / (2 * LAW_N + 1) * 1e9)
    assert err <= 1e-12 and norm <= 1e-12


@pytest.mark.parametrize("n", [8000, N_MAX])
def test_abs_moment(benchmark, n):
    # at 8000 against the 50-digit mpmath law; at N_MAX, out of its reach,
    # against the fsum over the full lattice, which must agree to the bit
    law = finite_size_law(n, PARAMS)
    value = benchmark.pedantic(abs_moment, args=(law,), rounds=10, iterations=1)
    if n == N_MAX:
        ref = full_lattice_abs_moment(law, 1.0, 0.0)
    else:
        ref = spin_law_mp(n, PARAMS.beta, PARAMS.kappa)[1]
    rel_err = abs(value - ref) / ref
    benchmark.extra_info.update(n=n, value=value, reference=ref, rel_err=rel_err)
    assert rel_err <= (0.0 if n == N_MAX else 1e-12)


@pytest.mark.parametrize("n", [8000, N_MAX])
def test_log_tail_mass(benchmark, n):
    # the error is relative to max(1, |log P|), the tolerance log_tail_mass
    # documents against mpmath; at N_MAX, against the full-lattice mask
    law = finite_size_law(n, PARAMS)
    gamma, a = 0.0, TAIL_A
    value = benchmark.pedantic(log_tail_mass, args=(law, gamma, a), rounds=10, iterations=1)
    if n == N_MAX:
        ref = full_lattice_log_tail_mass(law, gamma, a)
    else:
        with mp.workdps(30):
            log_p = spin_law_mp(n, PARAMS.beta, PARAMS.kappa)[0]
            k = math.ceil(a * n)
            ref = float(mp.log(2 * mp.fsum(mp.exp(x) for x in log_p[k:])))
    err = abs(value - ref) / max(1.0, abs(ref))
    benchmark.extra_info.update(n=n, gamma=gamma, a=a, value=value, reference=ref, err=err)
    assert err <= (4e-15 if n == N_MAX else 1e-12)


def clear_curve_cache():
    """Empty minimize's per-beta cache: the Tilt cache, or in a bclab that
    predates it the e^beta cache it replaced. A bclab with neither fails
    here, so no "cold" round can run warm unseen."""
    cache = minimize._tilt if hasattr(minimize, "_tilt") else minimize._curve_numerator
    cache.cache_clear()


def timed_solve(benchmark, cache, solve, arg):
    """solve(arg) timed warm (the same beta every round) or cold (every round
    starts with an empty per-beta cache)."""
    if cache == "warm":
        return benchmark(solve, arg)
    return benchmark.pedantic(solve, args=(arg,), setup=clear_curve_cache, rounds=300,
                              iterations=1)


@pytest.mark.parametrize("cache", ["cold", "warm"])
@pytest.mark.parametrize("beta", [1.5, 2.0, 3.0, BETA_C + 1e-6, BETA_C + 1e-10])
def test_first_order_k(benchmark, beta, cache):
    k1 = timed_solve(benchmark, cache, first_order_k, beta)
    ref = first_order_k_mp(beta)
    benchmark.extra_info.update(k1=k1, reference=ref, abs_err=abs(k1 - ref))
    assert abs(k1 - ref) <= 1e-12


@pytest.mark.parametrize("beta, kappa_over_k1, offset, region", [
    (2.0, 0.99, 0.0, PhaseRegion.SINGLE_PHASE),
    (2.0, 1.01, 0.0, PhaseRegion.COEXISTENCE),
    (1.5, 1.0, 5e-13, PhaseRegion.FIRST_ORDER_CURVE)],
    ids=["single-phase", "coexistence", "on-K1"])
@pytest.mark.parametrize("cache", ["cold", "warm"])
def test_classify(benchmark, beta, kappa_over_k1, offset, region, cache):
    ref = first_order_k_mp(beta)
    params = ModelParams(beta, ref * kappa_over_k1 + offset)
    got = timed_solve(benchmark, cache, classify, params)
    k1 = first_order_k(beta)
    benchmark.extra_info.update(beta=beta, kappa=params.kappa, region=got.value, k1=k1,
                                reference=ref, abs_err=abs(k1 - ref))
    assert got == region and abs(k1 - ref) <= 1e-12


@pytest.mark.parametrize("cache", ["cold", "warm"])
@pytest.mark.parametrize("params", [PARAMS, NEAR_CURVE], ids=["ordered", "near-K"])
def test_magnetization(benchmark, params, cache):
    m = timed_solve(benchmark, cache, magnetization, params)
    ref = magnetization_mp(params.beta, params.kappa)
    rel_err = abs(m - ref) / ref
    benchmark.extra_info.update(beta=params.beta, kappa=params.kappa, m=m,
                                reference=ref, rel_err=rel_err)
    assert rel_err <= 1e-12


@pytest.mark.parametrize("constant", ["ybar", "zbar"])
def test_limit_constant(benchmark, constant):
    spec = spec_from_json(dict(README_SEQ1, alpha=0.8 if constant == "ybar" else "1/2"))
    poly = g_tilde(spec) if constant == "ybar" else gl_polynomial(spec)[0]
    value = benchmark(limit_constant, poly)
    ref = exp_poly_abs_moment_mp(poly.c2, poly.c4, poly.c6)
    rel_err = abs(value - ref) / ref
    benchmark.extra_info.update(c2=poly.c2, c4=poly.c4, c6=poly.c6, value=value,
                                reference=ref, rel_err=rel_err)
    assert rel_err <= 1e-9


def test_hs_rhs(benchmark):
    params, n, gamma_bar = ModelParams(1.0, 1.5), 200, 0.2
    kinks = (-1.0, 0.0, 1.0)

    def f(x):
        return np.minimum(np.abs(x), 1.0)

    rhs = benchmark(hs_rhs, n, params, gamma_bar, f, kinks=kinks)
    lhs = hs_lhs(n, params, gamma_bar, f, kinks=kinks)
    rel_diff = abs(lhs - rhs) / abs(rhs)
    benchmark.extra_info.update(rhs=rhs, lhs=lhs, rel_diff=rel_diff)
    assert rel_diff <= 1e-8


def min_abs_1(x):
    return np.minimum(np.abs(x), 1.0)


@pytest.mark.parametrize("n, f, kinks", [
    (200, min_abs_1, (-1.0, 0.0, 1.0)),   # the criterion-06 point
    (10**5, np.abs, (0.0,)),
], ids=["200-min_abs_1", "100000-abs"])
def test_hs_lhs(benchmark, n, f, kinks):
    # the law is memoized, so every round after the first times the mixture alone
    params, gamma_bar = ModelParams(1.0, 1.5), 0.2
    lhs = benchmark(hs_lhs, n, params, gamma_bar, f, kinks=kinks)
    rhs = hs_rhs(n, params, gamma_bar, f, kinks=kinks)
    rel_diff = abs(lhs - rhs) / abs(rhs)
    benchmark.extra_info.update(n=n, gamma_bar=gamma_bar, kinks=kinks, lhs=lhs, rhs=rhs,
                                rel_diff=rel_diff)
    assert rel_diff <= 1e-12


def test_hs_rhs_past_the_exact_law(benchmark):
    spec, n = spec_from_json(dict(README_SEQ1, alpha=0.8)), 10**13
    value = benchmark(hs_rhs, n, params_at(spec, n), 0.25, np.square)
    limit = math.gamma(0.75) / math.gamma(0.25) / math.sqrt(g_tilde(spec).c4)
    benchmark.extra_info.update(n=n, value=value, limit=limit, abs_err=abs(value - limit))
    assert abs(value - limit) <= 2.5e-4


def test_weak_limit_distance_past_the_exact_law(benchmark):
    spec, n = spec_from_json(dict(README_SEQ1, alpha=0.8)), 10**16
    distance = benchmark(weak_limit_distance, spec, n)
    trend = weak_limit_distance(spec, n // 100) * 10 ** (-2 * (spec.alpha - 0.5))
    benchmark.extra_info.update(n=n, distance=distance, trend=trend,
                                rel_diff=abs(distance / trend - 1))
    assert abs(distance / trend - 1) <= 1e-2


def test_weak_limit_distance(benchmark):
    spec, n = spec_from_json(dict(README_SEQ1, alpha=0.8)), 4000
    distance = benchmark(weak_limit_distance, spec, n)
    oracle = mixture_distance(spec, n)
    benchmark.extra_info.update(n=n, distance=distance, oracle=oracle,
                                abs_diff=abs(distance - oracle))
    assert abs(distance - oracle) <= 3e-7


def test_params_at(benchmark):
    spec, n = spec_from_json(README_SEQ1), 4000
    params = benchmark(params_at, spec, n)
    validate_s = statistics.median(timeit.repeat(lambda: validate(spec), number=1000,
                                                 repeat=7)) / 1000
    with mp.workdps(50):
        beta = mp.mpf(spec.beta)
        # K_n = K(beta) + k / n^alpha, with K(beta) = e^beta / (4 beta) + 1 / (2 beta)
        ref = mp.exp(beta) / (4 * beta) + 1 / (2 * beta) + spec.k / mp.mpf(n) ** spec.alpha
        rel_err = float(abs(params.kappa - ref) / ref)
    call_s = benchmark.stats.stats.median
    benchmark.extra_info.update(n=n, kappa_n=params.kappa, reference=float(ref),
                                rel_err=rel_err, call_us=call_s * 1e6,
                                validate_us=validate_s * 1e6, validate_share=validate_s / call_s)
    assert params.beta == spec.beta and rel_err <= 1e-15


@pytest.mark.parametrize("threads", [[], ["--threads", "2"]], ids=["default", "threads2"])
def test_cli_sequence_run(benchmark, tmp_path, threads):
    spec = tmp_path / "seq1.json"
    spec.write_text(json.dumps(README_SEQ1), encoding="utf-8")
    out = tmp_path / "report.csv"
    argv = ["sequence-run", "--spec", str(spec), "--n", README_N, *threads, "-o", str(out)]
    # finite_size_law memoizes by (n, beta, K); every round starts cold
    code = benchmark.pedantic(cli.main, args=(argv,),
                              setup=finite_size._law_cached.cache_clear,
                              rounds=5, iterations=1)
    x_bar = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))["x_bar"]
    ref = xbar(gl_polynomial(spec_from_json(README_SEQ1))[0]).value
    benchmark.extra_info.update(x_bar=x_bar, reference=ref, abs_err=abs(x_bar - ref))
    assert code == 0 and x_bar == ref


CLI_SCRIPT = ("import contextlib, io, sys, time\n"
              "import bclab.cli\n"
              "argv = ['magnetize', '--beta', '1.0', '--kappa', '1.5']\n"
              "out = io.StringIO()\n"
              "start = time.perf_counter()\n"
              "with contextlib.redirect_stdout(out):\n"
              "    if sys.argv[1] == 'main':\n"
              "        bclab.cli.main(argv)\n"
              "    else:\n"
              "        bclab.cli.build_parser().parse_args(argv)\n"
              "print(time.perf_counter() - start, 'numpy' in sys.modules,\n"
              "      out.getvalue().replace(chr(10), ''))\n")


def test_cli_main_cold(benchmark):
    # each round is a fresh interpreter with bclab.cli imported, timing one
    # bclab magnetize call through cli.main (parse, check, solve, print);
    # before each round, untimed, another fresh interpreter times the parse
    # alone on the parser of every command (full_parse_s), the cost main
    # paid before it built only the named command's subparser
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bclab.__file__)))
    runs = {"main": [], "full": []}

    def fresh(mode):
        out = subprocess.run([sys.executable, "-c", CLI_SCRIPT, mode], env=env, check=True,
                             capture_output=True, text=True).stdout
        seconds, numpy_loaded, doc = out.split(" ", 2)
        runs[mode].append((float(seconds), doc, numpy_loaded == "True"))

    benchmark.pedantic(fresh, args=("main",), setup=lambda: fresh("full"),
                       rounds=10, iterations=1)
    m = json.loads(runs["main"][0][1])["m"]
    ref = magnetization_mp(1.0, 1.5)
    benchmark.extra_info.update(main_s=statistics.median(s for s, *_ in runs["main"]),
                                full_parse_s=statistics.median(s for s, *_ in runs["full"]),
                                numpy_loaded=any(loaded for *_, loaded in runs["main"]),
                                m=m, reference=ref, rel_err=abs(m - ref) / ref)
    assert abs(m - ref) <= 1e-12 * ref


IMPORT_SCRIPT = ("import sys, time\n"
                 "start = time.perf_counter()\n"
                 "import bclab\n"
                 "print(time.perf_counter() - start,\n"
                 "      any(m.split('.')[0] == 'scipy' for m in sys.modules),\n"
                 "      'numpy' in sys.modules)\n")


def test_import_bclab(benchmark):
    # each round is a fresh interpreter, so nothing is cached; the timed call
    # includes interpreter start-up, import_s is the import statement alone
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bclab.__file__)))
    runs = []

    def fresh_import():
        out = subprocess.run([sys.executable, "-c", IMPORT_SCRIPT], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        runs.append((float(out[0]), out[1] == "True", out[2] == "True"))

    benchmark.pedantic(fresh_import, rounds=10, iterations=1)
    benchmark.extra_info.update(import_s=statistics.median(s for s, _, _ in runs),
                                scipy_loaded=any(scipy for _, scipy, _ in runs),
                                numpy_loaded=any(numpy for _, _, numpy in runs))


COLD_CLI_SCRIPT = ("import sys, time\n"
                   "start = time.perf_counter()\n"
                   "import bclab.cli\n"
                   "code = bclab.cli.main(sys.argv[1:])\n"
                   "with open('/proc/self/status') as fh:\n"
                   "    hwm = next(ln.split()[1] for ln in fh if ln.startswith('VmHWM:'))\n"
                   "print(code, time.perf_counter() - start, hwm, 'numpy' in sys.modules)\n")


def test_cli_phase_diagram_cold(benchmark, tmp_path):
    # each round is a fresh interpreter importing bclab.cli and writing the
    # README's phase diagram, a scalar command: main_s includes the import
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bclab.__file__)))
    out = tmp_path / "curves.csv"
    argv = ["phase-diagram", "--beta-min", "0.5", "--beta-max", "2.5", "--points", "100",
            "-o", str(out)]
    runs = []

    def fresh():
        code, seconds, _, numpy_loaded = subprocess.run(
            [sys.executable, "-c", COLD_CLI_SCRIPT, *argv], env=env, check=True,
            capture_output=True, text=True).stdout.split()
        runs.append((int(code), float(seconds), numpy_loaded == "True"))

    benchmark.pedantic(fresh, rounds=10, iterations=1)
    rows = [row.split(",") for row in out.read_text(encoding="utf-8").splitlines()[1:]]
    beta, k1 = float(rows[-1][0]), float(rows[-1][2])
    ref = first_order_k_mp(beta)
    benchmark.extra_info.update(main_s=statistics.median(s for _, s, _ in runs),
                                numpy_loaded=any(loaded for *_, loaded in runs),
                                points=len(rows), beta=beta, k1=k1, reference=ref,
                                abs_err=abs(k1 - ref))
    assert all(code == 0 for code, *_ in runs) and len(rows) == 100
    assert abs(k1 - ref) <= 1e-12


def cold_cli(benchmark, argv) -> list[tuple[int, float, float]]:
    """(exit code, seconds, peak RSS in MB) of each of three rounds, each a
    fresh interpreter importing bclab.cli and running argv through cli.main.
    The peak is its VmHWM, import included. Its ru_maxrss would not do: Linux
    carries the high-water mark of the pytest process that spawned it across
    exec."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bclab.__file__)))
    runs = []

    def fresh():
        code, seconds, rss_kb, _ = subprocess.run(
            [sys.executable, "-c", COLD_CLI_SCRIPT, *argv], env=env, check=True,
            capture_output=True, text=True).stdout.split()
        runs.append((int(code), float(seconds), int(rss_kb) / 1024))

    benchmark.pedantic(fresh, rounds=3, iterations=1)
    return runs


def test_cli_finite_size_n_max(benchmark, tmp_path):
    # the 2 N_MAX + 1 rows of the law, against the sum of their probabilities
    out = tmp_path / "law.csv"
    runs = cold_cli(benchmark, ["finite-size", "--beta", "1.0", "--kappa", "1.5",
                                "--n", str(N_MAX), "-o", str(out)])
    with open(out, encoding="utf-8") as fh:
        rows = fh.read().splitlines()[1:]
    norm = abs(math.fsum(float(row.split(",")[1]) for row in rows) - 1.0)
    benchmark.extra_info.update(
        n=N_MAX, rows=len(rows), main_s=statistics.median(s for _, s, _ in runs),
        peak_rss_mb=statistics.median(mb for *_, mb in runs), norm_residual=norm)
    assert all(code == 0 for code, *_ in runs) and len(rows) == 2 * N_MAX + 1
    assert norm <= 1e-12


def test_cli_mc_n_max(benchmark, tmp_path):
    # the Metropolis chain at N_MAX, 20 sweeps, at beta = 1, K = 1.5, against
    # E|S_n/n| of the exact law
    out = tmp_path / "mc.json"
    runs = cold_cli(benchmark, ["mc", "--beta", "1.0", "--kappa", "1.5", "--n", str(N_MAX),
                                "--sweeps", "20", "-o", str(out)])
    est = json.loads(out.read_text(encoding="utf-8"))
    exact = abs_moment(finite_size_law(N_MAX, ModelParams(1.0, 1.5)))
    z = (est["mean"] - exact) / est["stderr"]
    benchmark.extra_info.update(
        n=N_MAX, sweeps=20, main_s=statistics.median(s for _, s, _ in runs),
        peak_rss_mb=statistics.median(mb for *_, mb in runs), mean=est["mean"],
        stderr=est["stderr"], exact=exact, z=z)
    assert all(code == 0 for code, *_ in runs) and abs(z) <= 6


def _criterion_03_figures() -> dict:
    k1 = first_order_k(BETA_C + 1e-6)
    return {"final_gap": abs(k1 - second_order_k(BETA_C)),
            "k1_abs_err": abs(k1 - first_order_k_mp(BETA_C + 1e-6))}


def _extrapolated_rel_err(spec, ns, constant: str) -> float:
    report = run_finite_size_asymptotics(spec, ns)
    limit = getattr(report.constants, constant)
    return abs(aitken_limit([r.scaled_e for r in report.rows]) / limit - 1)


def _criterion_09_figures() -> dict:
    spec = SequenceSpec(alpha=0.8, **test_acceptance.SEQ1)
    return {"extrapolated_rel_err": _extrapolated_rel_err(
        spec, [250, 1000, 4000, 16000, 64000], "y_bar")}


def _criterion_13_figures() -> dict:
    ns = [500, 2000, 8000, 32000]
    return {"below_rel_err": _extrapolated_rel_err(test_acceptance.seq6(0.15), ns, "x_bar"),
            "at_rel_err": _extrapolated_rel_err(test_acceptance.seq6(0.2), ns, "z_bar")}


@pytest.mark.parametrize("criterion, figures, bounds", [
    (test_acceptance.test_criterion_03_first_order_curve, _criterion_03_figures,
     {"final_gap": 1e-3, "k1_abs_err": 1e-12}),
    (test_acceptance.test_criterion_09_finite_size_above, _criterion_09_figures,
     {"extrapolated_rel_err": 0.05}),
    (test_acceptance.test_criterion_13_seq6_guardrails_and_regimes, _criterion_13_figures,
     {"below_rel_err": 0.05, "at_rel_err": 0.05})],
    ids=["03", "09", "13"])
def test_acceptance_criterion(benchmark, capsys, criterion, figures, bounds):
    # finite_size_law memoizes by (n, beta, K); every round starts cold. The
    # figures are computed after the timing, from the same calls
    benchmark.pedantic(criterion, setup=finite_size._law_cached.cache_clear,
                       rounds=5, iterations=1)
    values = figures()
    benchmark.extra_info.update(values, line=capsys.readouterr().out.splitlines()[-1])
    assert all(values[name] <= bound for name, bound in bounds.items())
