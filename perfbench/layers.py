"""Reduce a traced iteration's spans to the per-layer metrics.

Span-derived figures are computed here, in the traced process. The law
errors need the oracle laws, so ``run.py`` computes them from the log-weights
this returns; the other accuracy figures come from ``checks.py``.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from tracer import LAYERS, COUNT_ONLY_LAYERS, Tracer, self_cpu, self_times

TIMED = ("finite_size.finite_size_law", "finite_size.abs_moment", "finite_size.mc_estimate",
         "minimize.min_free_energy", "minimize.magnetization", "phase.first_order_k",
         "quadrature.weighted_ratio", "quadrature.tail_cutoff", "sequences.limit_constant",
         "harness.run_finite_size_asymptotics")
COUNTED = ("finite_size.finite_size_law", "finite_size.abs_moment", "finite_size.mc_estimate",
           "minimize.min_free_energy", "minimize.magnetization", "phase.first_order_k",
           "phase.classify", "model.free_energy", "model.cumulant_deriv",
           "quadrature.weighted_ratio", "sequences.params_at", "sequences.limit_constant",
           "cli.main")
SELF = ("harness.run_finite_size_asymptotics", "harness.mdp_rate_estimate", "cli.main")


def _states(n: int) -> int:
    """(n_plus, n_minus) pairs the O(n^2) enumeration visits for s = 0..n."""
    return sum((n - s) // 2 + 1 for s in range(n + 1))


def _arg(span, index: int, name: str):
    return span.args[index] if len(span.args) > index else span.kwargs[name]


def reduce(tracer: Tracer, cpu_s: float) -> tuple[dict, dict]:
    """(metrics, laws): the per-layer metrics, and the log-probabilities of
    each newly computed law keyed as ``checks.law_key``."""
    spans = sorted(tracer.spans, key=lambda s: s.start)
    own = self_times(spans)
    own_cpu = self_cpu(spans)
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    m: dict[str, float] = {}
    for name in COUNTED:
        m[f"{name}.calls"] = tracer.counts.get(name, 0)
    for name in TIMED:
        m[f"{name}.total_s"] = sum(s.end - s.start for s in by_name.get(name, ()))
    for name in SELF:
        m[f"{name}.self_s"] = sum(own[s.sid] for s in by_name.get(name, ()))
    for layer in LAYERS:
        if layer in COUNT_ONLY_LAYERS:
            continue
        mine = [s for s in spans if s.name.split(".", 1)[0] == layer]
        m[f"layer.{layer}.self_s"] = sum(own[s.sid] for s in mine)
        m[f"layer.{layer}.cpu_share"] = sum(own_cpu[s.sid] for s in mine) / cpu_s
    m["trace.spans"] = len(spans)

    # exact law: first computation per key versus cache hits
    laws, seen, first_s, states, nbytes, resid = {}, set(), 0.0, 0, 0, 0.0
    for s in by_name.get("finite_size.finite_size_law", ()):
        n, params = _arg(s, 0, "n"), _arg(s, 1, "params")
        key = (n, params.beta, params.kappa)
        if key in seen:
            continue
        seen.add(key)
        first_s += s.end - s.start
        states += _states(n)
        nbytes += (2 * n + 1) * 8
        if s.result is not None:
            law = s.result
            log_p = law.log_weights - law.log_z
            resid = max(resid, abs(math.fsum(np.exp(log_p)) - 1.0))
            laws[f"{n}|{params.beta!r}|{params.kappa!r}"] = log_p[n:].tolist()
    calls = m["finite_size.finite_size_law.calls"]
    m["finite_size.finite_size_law.first_call_s"] = first_s
    m["finite_size.finite_size_law.repeat_share"] = (calls - len(seen)) / calls if calls else 0.0
    m["finite_size.finite_size_law.max_n"] = max((k[0] for k in seen), default=0)
    m["finite_size.finite_size_law.states"] = states
    m["finite_size.finite_size_law.ns_per_state"] = first_s / states * 1e9 if states else 0.0
    m["finite_size.finite_size_law.bytes"] = nbytes
    m["finite_size.finite_size_law.max_norm_residual"] = resid

    # Metropolis steps: n sites per sweep, burn-in defaults to sweeps // 10
    steps = 0
    for s in by_name.get("finite_size.mc_estimate", ()):
        n, sweeps = _arg(s, 0, "n"), _arg(s, 2, "sweeps")
        burn_in = s.kwargs.get("burn_in", s.args[3] if len(s.args) > 3 else None)
        steps += n * (sweeps + (sweeps // 10 if burn_in is None else burn_in))
    m["finite_size.mc_estimate.steps"] = steps
    m["finite_size.mc_estimate.ns_per_step"] = (
        m["finite_size.mc_estimate.total_s"] / steps * 1e9 if steps else 0.0)

    mags = by_name.get("minimize.magnetization", ())
    m["minimize.magnetization.p50_us"] = (
        statistics.median(s.end - s.start for s in mags) * 1e6 if mags else 0.0)

    k1_spans, k1_seen, k1_first = by_name.get("phase.first_order_k", ()), set(), []
    for s in k1_spans:
        beta = _arg(s, 0, "beta")
        if beta not in k1_seen:
            k1_seen.add(beta)
            k1_first.append(s.end - s.start)
    m["phase.first_order_k.p50_ms"] = statistics.median(k1_first) * 1e3 if k1_first else 0.0
    m["phase.first_order_k.repeat_share"] = (
        (len(k1_spans) - len(k1_seen)) / len(k1_spans) if k1_spans else 0.0)

    m["harness.rows"] = (
        sum(len(s.result.rows) for s in by_name.get("harness.run_finite_size_asymptotics", ())
            if s.result is not None)
        + sum(len(s.result.rows) for s in by_name.get("harness.mdp_rate_estimate", ())
              if s.result is not None))
    return m, laws
