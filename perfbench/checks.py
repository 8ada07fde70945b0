"""Expected values per workload and the comparison of bclab's outputs with them.

``expected`` assembles the oracle values a workload's outputs are checked
against (slow, cached by ``run.py``). ``check`` runs after the timed region
and counts one operation per checked unit: a CSV row, a sidecar, or a direct
function call. An operation fails if it raised, its CLI call exited nonzero,
or a value misses the oracle by more than its tolerance:

* exact spin law (``e_finite``, tail rates): relative 1e-10 and 1e-9;
  the laws are exact, and the mpmath recurrence agrees with bclab to about
  1e-12 at n = 16000;
* ``magnetization``: the documented |G'(m)| < 1e-13, evaluated in mpmath, and
  the same global minimizer as the oracle to 1e-9;
* ``classify``: the same region;
* ``first_order_k``: the documented 1e-12 absolute, except near beta_c (see
  below); the conjecture estimates get the finite-difference combination of
  the per-point tolerances;
* limit constant ``y_bar``: relative 1e-9 (ten times the quadrature's 1e-10);
* Metropolis: |mean - exact| <= 6 of the estimator's batch-means standard
  errors; for sequence rows, whose CSV carries only the mean, the standard
  error comes from ``workloads.record_estimates``.

Two known defects of the revision that defined this benchmark are reported
as figures rather than failures, because the benchmark contract needs a zero
failure count at that revision. Each exemption covers only the defect:

* ``first_order_k`` documents a 1e-12 bracket and misses it for
  beta - beta_c < 1e-3 (K1_BAND), by up to 1.6e-8 in the measurements. In
  that band only, the failure tolerance is K1_BAND_TOL; misses of 1e-12 are
  reported as ``phase.first_order_k.max_abs_err`` and ``tol_misses``.
* ``magnetization`` returns exactly 0 when the minimizer lies in the last
  cell of its 4001-point scan (m > 0.99975, large beta K), which the scan
  cannot bracket. A returned 0 where the oracle's m is in that cell is
  reported as ``minimize.magnetization.last_cell_misses``; every other miss
  fails.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import oracles
import workloads as W

K1_DOC_TOL = 1e-12
K1_BAND = 1e-3           # beta - beta_c below this: the known near-critical misses
K1_BAND_TOL = 3e-8       # largest measured miss in the band, 1.6e-8, with a margin
K_ROUND = 1e-15          # float rounding of K(beta_c), shared by both sides of a difference
E_REL_TOL = 1e-10
RATE_REL_TOL = 1e-9
M_TOL = 1e-9
M_LAST_CELL = 1.0 - 1.0 / 4000   # last cell of magnetization's 4001-point scan
GRAD_TOL = 1e-13
LIMIT_REL_TOL = 1e-9
MC_Z_MAX = 6.0
PARAM_REL_TOL = 1e-15


# ----------------------------------------------------------------- expected

def _seq1_constants(beta: float, k: float, alpha: float) -> dict:
    c2, c4 = -beta * k, oracles.c4_coefficient(beta)
    above = alpha > 0.5
    return {"alpha0": 0.5, "theta": 0.5, "regime": "above" if above else "below",
            "x_bar": math.sqrt(-c2 / (2.0 * c4)),
            "y_bar": oracles.limit_constant(0.0, c4, 0.0) if above else None,
            "z_bar": None, "banner": None,
            "m_exp": 0.5 * alpha, "e_exp": 0.25 if above else 0.5 * alpha}


def _seq1_rows(beta: float, k: float, alpha: float, ns, laws: dict) -> list[dict]:
    rows = []
    for n in ns:
        beta_n, kappa_n = oracles.seq1_params(beta, 0, k, alpha, n)
        law = oracles.SpinLaw(n, beta_n, kappa_n)
        laws[law_key(n, beta_n, kappa_n)] = law
        rows.append({"n": n, "beta_n": beta_n, "kappa_n": kappa_n,
                     "m": oracles.magnetization(beta_n, kappa_n), "e": law.abs_mean()})
    return rows


def law_key(n: int, beta: float, kappa: float) -> str:
    return f"{n}|{beta!r}|{kappa!r}"


def expected(name: str, inputs: dict) -> dict:
    """Oracle values for one workload's outputs; JSON-serializable."""
    laws: dict = {}
    if name == "crossover-exact":
        beta, k = inputs["beta"], inputs["k"]
        out = {"above": _seq1_rows(beta, k, 0.8, W.CROSSOVER_ABOVE_N, laws),
               "above_constants": _seq1_constants(beta, k, 0.8),
               "below": _seq1_rows(beta, k, 0.3, W.CROSSOVER_BELOW_N, laws),
               "below_constants": _seq1_constants(beta, k, 0.3)}
        c2, c4 = -beta * k, oracles.c4_coefficient(beta)
        gamma, u = 0.5 * 0.25, 1.0 - 0.25 / 0.5
        xb = math.sqrt(-c2 / (2.0 * c4))
        mdp = []
        for n in W.MDP_N:
            beta_n, kappa_n = oracles.seq1_params(beta, 0, k, 0.25, n)
            law = oracles.SpinLaw(n, beta_n, kappa_n)
            laws[law_key(n, beta_n, kappa_n)] = law
            log_p = law.log_tail(W.MDP_A * float(n) ** (1.0 - gamma))
            mdp.append({"n": n, "rate": None if log_p < -700.0 else -log_p / float(n) ** u})
        g = lambda x: c2 * x * x + c4 * x ** 4  # noqa: E731
        out["mdp"] = mdp
        out["mdp_constants"] = {"target": g(W.MDP_A) - g(xb), "a": W.MDP_A, "u": u}
        out["laws"] = {key: law.log_probs() for key, law in laws.items()}
        return out
    if name == "phase-curve":
        grid = [{"beta": b, "k2": oracles.k_second(b),
                 "k1": oracles.first_order_k(b) if b > oracles.BETA_C else None}
                for b in W.phase_grid()]
        k1_by_beta = {row["beta"]: row["k1"] for row in grid}
        points = []
        for beta, kappa in inputs["points"]:
            curve = oracles.k_second(beta) if beta <= oracles.BETA_C else k1_by_beta[beta]
            points.append({"region": "single-phase" if kappa < curve else "coexistence",
                           "m": oracles.magnetization(beta, kappa)})
        k0 = oracles.k_second(oracles.BETA_C)
        conj = []
        for h in W.CONJECTURE_H:
            k1h = oracles.first_order_k(oracles.BETA_C + h)
            k12h = oracles.first_order_k(oracles.BETA_C + 2 * h)
            conj.append({"h": h, "prime": (k1h - k0) / h,
                         "second": (k12h - 2 * k1h + k0) / (h * h)})
        k2pp = oracles.k_second_deriv(oracles.BETA_C, 2)
        k1 = [[oracles.first_order_k(b) for b in betas] for betas in inputs["betas"]]
        return {"grid": grid, "k1": k1, "points": points, "conjectures": conj,
                "k_prime_ref": oracles.k_second_deriv(oracles.BETA_C, 1),
                "ell_c_ref": k2pp - 5.0 / (4.0 * oracles.BETA_C)}
    if name == "mc-crosscheck":
        return {"mc": oracles.SpinLaw(W.MC_N, inputs["beta"], inputs["kappa"]).abs_mean(),
                "rows": _seq1_rows(inputs["seq_beta"], inputs["seq_k"], 0.3, W.MC_SEQ_N, {}),
                "constants": _seq1_constants(inputs["seq_beta"], inputs["seq_k"], 0.3)}
    raise ValueError(f"unknown workload {name!r}")


# -------------------------------------------------------------------- check

@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)    # accuracy figures, max over the run

    def op(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.append(f"{label}: {'; '.join(problems)}")

    def stat(self, key: str, value: float) -> None:
        self.stats[key] = max(self.stats.get(key, 0.0), value)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b else abs(a - b)


def _num(text: str):
    return None if text == "" else float(text)


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _check_seq_rows(out: Outcome, label: str, rows: list[dict], exp_rows: list[dict],
                    consts: dict, e_check) -> None:
    if len(rows) != len(exp_rows):
        out.op(label, [f"{len(rows)} rows, expected {len(exp_rows)}"])
        return
    for row, exp in zip(rows, exp_rows):
        p = []
        n = int(row["n"])
        if n != exp["n"]:
            p.append(f"n {n} != {exp['n']}")
        for col, key in (("beta_n", "beta_n"), ("kappa_n", "kappa_n")):
            if _rel(float(row[col]), exp[key]) > PARAM_REL_TOL:
                p.append(f"{col} {row[col]} != {exp[key]!r}")
        m, e = float(row["m_thermo"]), float(row["e_finite"])
        out.stat("m_abs_err", abs(m - exp["m"]))
        if abs(m - exp["m"]) > M_TOL:
            p.append(f"m_thermo {m!r} vs oracle {exp['m']!r}")
        p += e_check(e, exp["e"])
        if _rel(float(row["scaled_m"]), n ** consts["m_exp"] * m) > 1e-12:
            p.append("scaled_m inconsistent with m_thermo")
        if _rel(float(row["scaled_e"]), n ** consts["e_exp"] * e) > 1e-12:
            p.append("scaled_e inconsistent with e_finite")
        out.op(f"{label} n={n}", p)


def _check_constants(out: Outcome, label: str, doc: dict, consts: dict) -> None:
    p = []
    for key in ("alpha0", "theta", "regime", "z_bar", "banner"):
        if doc.get(key) != consts[key]:
            p.append(f"{key} {doc.get(key)!r} != {consts[key]!r}")
    if _rel(doc["x_bar"], consts["x_bar"]) > 1e-12:
        p.append(f"x_bar {doc['x_bar']!r} vs {consts['x_bar']!r}")
    if consts["y_bar"] is None:
        if doc.get("y_bar") is not None:
            p.append("y_bar should be null")
    elif _rel(doc["y_bar"], consts["y_bar"]) > LIMIT_REL_TOL:
        p.append(f"y_bar {doc['y_bar']!r} vs {consts['y_bar']!r}")
    out.op(label, p)


def _exact_e(out: Outcome):
    def check(e, exact):
        err = _rel(e, exact)
        out.stat("e_rel_err", err)
        return [f"e_finite {e!r} vs oracle {exact!r}"] if err > E_REL_TOL else []
    return check


def _mc_row_e(out: Outcome, estimates: list[list]):
    by_mean = {mean: stderr for _, _, _, mean, stderr in estimates}

    def check(e, exact):
        stderr = by_mean.get(e)
        if stderr is None:
            return [f"e_finite {e!r} is not the mean of any Metropolis estimate"]
        z = abs(e - exact) / stderr if stderr > 0 else math.inf
        out.stat("mc_max_z", z)
        return [f"e_finite {e!r} is {z:.1f} stderr from exact {exact!r}"] if z > MC_Z_MAX else []
    return check


def k1_fail_tol(beta: float) -> float:
    """Failure tolerance of K1(beta): the documented bracket, widened only in
    the near-critical band where the known defect lies."""
    return K1_BAND_TOL if beta - oracles.BETA_C < K1_BAND else K1_DOC_TOL


def _k1_check(out: Outcome, label: str, beta: float, value, exact: float) -> list[str]:
    err = abs(value - exact)
    out.stat("k1_max_abs_err", err)
    if err > K1_DOC_TOL:
        out.stats["k1_tol_misses"] = out.stats.get("k1_tol_misses", 0) + 1
    return [f"{label}({beta!r}) {value!r} vs oracle {exact!r}"] if err > k1_fail_tol(beta) else []


def check(name: str, inputs: dict, exp: dict, outputs: dict, files: dict[str, str],
          draw: int) -> Outcome:
    """Compare one iteration's outputs with the oracle values; ``draw`` is the
    u draw the iteration ran (``workloads.tricritical_betas``)."""
    out = Outcome()
    cli = {c["artifacts"][0]: c for c in outputs["cli"]}
    calls = outputs["calls"]

    def artifact(first: str, units: int):
        c = cli.get(first)
        if c is None or c["code"] != 0 or c["error"] or first not in files:
            why = c["error"] if c and c["error"] else f"exit code {c and c['code']}"
            for _ in range(units):
                out.op(first, [f"CLI failed: {why}"])
            return None
        return c

    def sidecar(csv_name: str) -> dict:
        return json.loads(files[csv_name[:-4] + ".json"])

    if name == "crossover-exact":
        for tag in ("above", "below"):
            if artifact(f"{tag}.csv", len(exp[tag]) + 1):
                _check_seq_rows(out, tag, _rows(files[f"{tag}.csv"]), exp[tag],
                                exp[f"{tag}_constants"], _exact_e(out))
                _check_constants(out, f"{tag}.json", sidecar(f"{tag}.csv"),
                                 exp[f"{tag}_constants"])
        if artifact("mdp.csv", len(exp["mdp"]) + 1):
            rows = _rows(files["mdp.csv"])
            for row, e in zip(rows, exp["mdp"]):
                rate, sat = _num(row["rate_est"]), row["saturated"] == "true"
                p = []
                if sat != (e["rate"] is None):
                    p.append(f"saturated={sat} but oracle rate {e['rate']!r}")
                elif rate is not None:
                    out.stat("rate_rel_err", _rel(rate, e["rate"]))
                    if _rel(rate, e["rate"]) > RATE_REL_TOL:
                        p.append(f"rate {rate!r} vs oracle {e['rate']!r}")
                out.op(f"mdp n={row['n']}", p)
            for _ in range(len(exp["mdp"]) - len(rows)):
                out.op("mdp", ["missing row"])
            doc, c = sidecar("mdp.csv"), exp["mdp_constants"]
            out.op("mdp.json", [f"{k} {doc.get(k)!r} vs {c[k]!r}" for k in c
                                if doc.get(k) is None or _rel(doc[k], c[k]) > 1e-12])
    elif name == "phase-curve":
        if artifact("curves.csv", len(exp["grid"])):
            rows = _rows(files["curves.csv"])
            for row, e in zip(rows, exp["grid"]):
                p = []
                if float(row["beta"]) != e["beta"]:
                    p.append(f"beta {row['beta']} != {e['beta']!r}")
                if abs(float(row["K_second_order"]) - e["k2"]) > K1_DOC_TOL:
                    p.append(f"K_second_order {row['K_second_order']} vs {e['k2']!r}")
                k1 = _num(row["K_first_order"])
                if (k1 is None) != (e["k1"] is None):
                    p.append(f"K_first_order {row['K_first_order']!r} vs {e['k1']!r}")
                elif k1 is not None:
                    p += _k1_check(out, "K_first_order", e["beta"], k1, e["k1"])
                out.op(f"phase-diagram beta={row['beta']}", p)
            for _ in range(len(exp["grid"]) - len(rows)):
                out.op("phase-diagram", ["missing row"])
        k1_calls = [c for c in calls if c["op"] == "first_order_k"]
        betas = W.tricritical_betas(inputs, draw)
        exact_k1 = exp["k1"][draw % len(exp["k1"])]
        for c, exact, beta in zip(k1_calls, exact_k1, betas):
            out.op(f"first_order_k({beta!r})", [c["error"]] if c["error"] else
                   _k1_check(out, "first_order_k", beta, c["value"], exact))
        if artifact("conjectures.json", 1):
            doc = json.loads(files["conjectures.json"])
            p = []
            for row, e in zip(doc["rows"], exp["conjectures"]):
                h = e["h"]
                # (K1(bc+h) - K0)/h and (K1(bc+2h) - 2 K1(bc+h) + K0)/h^2
                t1 = k1_fail_tol(oracles.BETA_C + h)
                t2 = k1_fail_tol(oracles.BETA_C + 2 * h)
                if abs(row["k1_prime_est"] - e["prime"]) > (t1 + K_ROUND) / h:
                    p.append(f"k1_prime_est at h={h}")
                if abs(row["k1_second_est"] - e["second"]) > (t2 + 2 * t1 + K_ROUND) / (h * h):
                    p.append(f"k1_second_est at h={h}")
            if len(doc["rows"]) != len(exp["conjectures"]):
                p.append("row count")
            for key in ("k_prime_ref", "ell_c_ref"):
                if _rel(doc[key], exp[key]) > 1e-12:
                    p.append(f"{key} {doc[key]!r} vs {exp[key]!r}")
            out.op("conjectures", p)
        regions = [c for c in calls if c["op"] == "classify"]
        mags = [c for c in calls if c["op"] == "magnetization"]
        for (beta, kappa), c, e in zip(inputs["points"], regions, exp["points"]):
            out.op(f"classify({beta!r}, {kappa!r})", [c["error"]] if c["error"] else (
                [] if c["value"] == e["region"] else [f"{c['value']} != {e['region']}"]))
        for (beta, kappa), c, e in zip(inputs["points"], mags, exp["points"]):
            if c["error"]:
                out.op("magnetization", [c["error"]])
                continue
            m, p = c["value"], []
            out.stat("m_abs_err", abs(m - e["m"]))
            if abs(m - e["m"]) > M_TOL:
                if m == 0.0 and e["m"] > M_LAST_CELL:
                    out.stats["m_last_cell_misses"] = out.stats.get("m_last_cell_misses", 0) + 1
                else:
                    p.append(f"m {m!r} vs oracle {e['m']!r}")
            if m > 0:
                grad = oracles.free_energy_grad(beta, kappa, m)
                out.stat("gprime_max", grad)
                if grad >= GRAD_TOL:
                    p.append(f"|G'(m)| = {grad:.3g}")
            out.op(f"magnetization({beta!r}, {kappa!r})", p)
    elif name == "mc-crosscheck":
        if artifact("mc.json", 1):
            doc = json.loads(files["mc.json"])
            z = abs(doc["mean"] - exp["mc"]) / doc["stderr"] if doc["stderr"] > 0 else math.inf
            out.stat("mc_max_z", z)
            p = [] if z <= MC_Z_MAX else [f"mean {doc['mean']!r} is {z:.1f} stderr from {exp['mc']!r}"]
            if doc["sweeps"] != W.MC_SWEEPS or doc["seed"] != inputs["mc_seed"]:
                p.append("sweeps/seed not echoed")
            out.op("mc", p)
        if artifact("mcseq.csv", len(exp["rows"]) + 1):
            _check_seq_rows(out, "mcseq", _rows(files["mcseq.csv"]), exp["rows"],
                            exp["constants"], _mc_row_e(out, outputs["estimates"]))
            _check_constants(out, "mcseq.json", sidecar("mcseq.csv"), exp["constants"])
    else:
        raise ValueError(f"unknown workload {name!r}")
    return out
