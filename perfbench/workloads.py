"""The three workloads: seeded inputs and the bodies that drive bclab.

``make_inputs`` draws every model point and offset from the seed and from
vetted ranges; bclab receives only these generated values. ``run`` executes
one workload against an imported bclab and returns its raw outputs: CLI exit
codes and the names of the artifacts it wrote, and the values of the public
functions it called. Nothing here checks results; see ``checks.py``.
"""

from __future__ import annotations

import functools
import json
import random
from pathlib import Path

NAMES = ("crossover-exact", "phase-curve", "mc-crosscheck")

THREADS = 2                                   # sequence-run row pool, nproc of the reference box
CROSSOVER_ABOVE_N = (250, 1000, 4000, 8000)   # alpha = 0.8 > alpha0 = 1/2
CROSSOVER_BELOW_N = (250, 500, 1000, 2000, 4000)  # alpha = 0.3
MDP_N = (500, 1000, 2000, 4000)               # alpha = 0.25, a = 2.4
MDP_A = 2.4
PHASE_GRID = (0.5, 3.0, 11)                   # beta_min, beta_max, points
TRICRITICAL_J = (2, 3, 4, 5, 6)               # first_order_k at beta_c + u 10^-j
U_DRAWS = 8                                   # see tricritical_betas
CONJECTURE_H = (1e-2, 1e-3)
PHASE_POINTS = 1000
MC_N = 10000
MC_SWEEPS = 300
MC_SEQ_N = (1000, 2000, 4000)


def seq1(beta: float, k: float, alpha: float) -> dict:
    return {"kind": "seq1", "alpha": alpha, "beta": beta, "b": 0, "k": k}


def phase_grid() -> list[float]:
    """The beta values phase-diagram samples (same expression as its points)."""
    lo, hi, points = PHASE_GRID
    return [lo + (hi - lo) * i / (points - 1) for i in range(points)]


def make_inputs(name: str, seed: int) -> dict:
    import oracles
    rng = random.Random(f"{name}:{seed}")
    if name == "crossover-exact":
        return {"beta": rng.uniform(0.9, 1.1), "k": rng.uniform(0.9, 1.1)}
    if name == "phase-curve":
        # The cost of a near-tricritical K1 solve varies by tens of percent with
        # u, so successive iterations take successive draws; a run's median then
        # averages over draws instead of riding on one.
        us = [rng.uniform(1.0, 2.0) for _ in range(U_DRAWS)]
        grid = phase_grid()
        k1 = {beta: oracles.first_order_k(beta) for beta in grid if beta > oracles.BETA_C}
        points = []
        for _ in range(PHASE_POINTS):
            beta = rng.choice(grid)
            if beta <= oracles.BETA_C or rng.random() < 0.5:
                curve = oracles.k_second(beta)
            else:
                curve = k1[beta]
            offset = rng.choice((-1.0, 1.0)) * rng.uniform(0.01, 0.2)
            points.append((beta, curve * (1.0 + offset)))
        return {"u": us, "points": points,
                "betas": [[oracles.BETA_C + u * 10.0 ** -j for j in TRICRITICAL_J] for u in us]}
    if name == "mc-crosscheck":
        beta = rng.uniform(0.8, 1.2)
        return {"beta": beta, "kappa": oracles.k_second(beta) + rng.uniform(0.3, 0.5),
                "mc_seed": rng.randrange(1, 2 ** 31),
                "seq_beta": rng.uniform(0.9, 1.1), "seq_k": rng.uniform(0.9, 1.1)}
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")


def prepare(name: str, inputs: dict, workdir: Path) -> None:
    """Write the spec files a workload's CLI calls read (outside the timed region)."""
    specs = {
        "crossover-exact": lambda: seq1(inputs["beta"], inputs["k"], 0.8),
        "mc-crosscheck": lambda: seq1(inputs["seq_beta"], inputs["seq_k"], 0.3),
    }
    if name in specs:
        (workdir / "seq1.json").write_text(json.dumps(specs[name]()), encoding="utf-8")


def _csv(ns) -> str:
    return ",".join(str(n) for n in ns)


class _Recorder:
    """Collects one entry per operation; a raised exception becomes the entry's error."""

    def __init__(self, bclab):
        self.bclab = bclab
        self.cli: list[dict] = []
        self.calls: list[dict] = []

    def main(self, argv: list[str], artifacts: tuple[str, ...]) -> None:
        argv = [str(a) for a in argv]
        try:
            code, error = self.bclab.cli.main(argv), None
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - argparse exits on bad flags
            code, error = None, f"{type(exc).__name__}: {exc}"
        self.cli.append({"argv": argv, "code": code, "error": error,
                         "artifacts": list(artifacts)})

    def call(self, op: str, fn, *args, **kwargs) -> None:
        try:
            value, error = fn(*args, **kwargs), None
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            value, error = None, f"{type(exc).__name__}: {exc}"
        self.calls.append({"op": op, "value": value, "error": error})


def record_estimates(bclab) -> list[list]:
    """Rebind every copy of mc_estimate so that each result's
    [n, beta, K, mean, stderr] is kept: sequence-run writes only the mean, and
    the check of a Metropolis row needs its standard error as well."""
    original = bclab.finite_size.mc_estimate
    kept: list[list] = []

    @functools.wraps(original)
    def recorded(n, params, *args, **kwargs):
        est = original(n, params, *args, **kwargs)
        kept.append([n, params.beta, params.kappa, est.mean, est.stderr])
        return est

    for mod in (bclab, bclab.finite_size, bclab.harness, bclab.cli):
        if getattr(mod, "mc_estimate", None) is original:
            setattr(mod, "mc_estimate", recorded)
    return kept


def tricritical_betas(inputs: dict, draw: int) -> list[float]:
    """The first_order_k betas of u draw ``draw`` (taken modulo U_DRAWS).

    Untraced runs give iteration i draw i. Traced runs alternate untraced and
    traced iterations and give both iterations of pair i draw i, so the
    tracing overhead is measured on equal inputs."""
    return inputs["betas"][draw % len(inputs["betas"])]


def run(name: str, bclab, inputs: dict, workdir: Path, draw: int) -> dict:
    """Execute one workload; returns {"cli": [...], "calls": [...]}."""
    rec = _Recorder(bclab)
    spec = workdir / "seq1.json"
    if name == "crossover-exact":
        rec.main(["sequence-run", "--spec", spec, "--alpha", 0.8, "--n", _csv(CROSSOVER_ABOVE_N),
                  "--threads", THREADS, "-o", workdir / "above.csv"], ("above.csv", "above.json"))
        rec.main(["sequence-run", "--spec", spec, "--alpha", 0.3, "--n", _csv(CROSSOVER_BELOW_N),
                  "--threads", THREADS, "-o", workdir / "below.csv"], ("below.csv", "below.json"))
        rec.main(["mdp-check", "--spec", spec, "--alpha", 0.25, "--a", MDP_A, "--n", _csv(MDP_N),
                  "-o", workdir / "mdp.csv"], ("mdp.csv", "mdp.json"))
    elif name == "phase-curve":
        lo, hi, points = PHASE_GRID
        rec.main(["phase-diagram", "--beta-min", lo, "--beta-max", hi, "--points", points,
                  "-o", workdir / "curves.csv"], ("curves.csv",))
        for beta in tricritical_betas(inputs, draw):
            rec.call("first_order_k", bclab.phase.first_order_k, beta)
        rec.main(["conjectures", "--h", ",".join(repr(h) for h in CONJECTURE_H),
                  "-o", workdir / "conjectures.json"], ("conjectures.json",))
        for beta, kappa in inputs["points"]:
            params = bclab.model.ModelParams(beta, kappa)
            rec.call("classify", lambda p: bclab.phase.classify(p).value, params)
            rec.call("magnetization", bclab.minimize.magnetization, params)
    elif name == "mc-crosscheck":
        rec.main(["mc", "--beta", repr(inputs["beta"]), "--kappa", repr(inputs["kappa"]),
                  "--n", MC_N, "--sweeps", MC_SWEEPS, "--seed", inputs["mc_seed"],
                  "-o", workdir / "mc.json"], ("mc.json",))
        rec.main(["sequence-run", "--spec", spec, "--estimator", "mc", "--sweeps", MC_SWEEPS,
                  "--seed", inputs["mc_seed"], "--n", _csv(MC_SEQ_N), "--threads", THREADS,
                  "-o", workdir / "mcseq.csv"], ("mcseq.csv", "mcseq.json"))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return {"cli": rec.cli, "calls": rec.calls}


# Layer counters that must be nonzero in a traced run of each workload: a zero
# means a wrapper was bypassed (a binding the tracer missed).
EXPECTED_COUNTS = {
    "crossover-exact": ("cli.main", "harness.run_finite_size_asymptotics",
                        "harness.mdp_rate_estimate", "finite_size.finite_size_law",
                        "finite_size.abs_moment", "minimize.magnetization",
                        "sequences.params_at", "sequences.limit_constant",
                        "quadrature.weighted_ratio", "model.free_energy"),
    "phase-curve": ("cli.main", "phase.first_order_k", "phase.classify",
                    "phase.verify_tricritical_conjectures", "minimize.min_free_energy",
                    "minimize.magnetization", "model.free_energy", "model.cumulant_deriv"),
    "mc-crosscheck": ("cli.main", "finite_size.mc_estimate",
                      "harness.run_finite_size_asymptotics", "sequences.params_at",
                      "minimize.magnetization"),
}


def missing_counts(name: str, counts: dict) -> list[str]:
    """Expected layer counters that a traced run of ``name`` left at zero."""
    return [c for c in EXPECTED_COUNTS[name] if counts.get(c, 0) == 0]


# Spans whose arguments and results the traced run keeps: law keys and law
# errors, K1 repeat shares, Metropolis step counts and harness row counts.
CAPTURE = ("finite_size.finite_size_law", "phase.first_order_k", "finite_size.mc_estimate",
           "harness.run_finite_size_asymptotics", "harness.mdp_rate_estimate")
