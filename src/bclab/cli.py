"""Command-line front door: parse an experiment config, dispatch to the
harness, and write CSV/JSON artifacts deterministically.

Identical config and seed produce byte-identical files: floats are printed
with 17 significant digits, rows are emitted in a fixed order, and all files
are UTF-8 with LF line endings. Flags mirror config-file keys one-to-one
(dashes become underscores); a config-file value is used only when the
corresponding flag is absent. BCLAB_THREADS is the fallback for --threads.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import harness, phase
from .finite_size import finite_size_law, mc_estimate
from .model import BETA_MAX, ModelParams, free_energy
from .phase import BETA_C, first_order_k, second_order_k
from .sequences import SequenceSpec, spec_from_json

COMMANDS = ("phase-diagram", "magnetize", "finite-size", "mc", "sequence-run",
            "mdp-check", "weak-limit", "conjectures")

_REQUIRED = {
    "phase-diagram": ("beta_min", "beta_max", "points", "output_path"),
    "magnetize": ("beta", "kappa"),
    "finite-size": ("beta", "kappa", "n", "output_path"),
    "mc": ("beta", "kappa", "n", "sweeps"),
    "sequence-run": ("spec", "n_list", "output_path"),
    "mdp-check": ("spec", "a", "n_list", "output_path"),
    "weak-limit": ("spec", "n_list", "output_path"),
    "conjectures": (),
}
_OPTIONAL = {
    "phase-diagram": (),
    "magnetize": ("output_path",),
    "finite-size": ("output_path",),
    "mc": ("burn_in", "seed", "output_path"),
    "sequence-run": ("alpha", "estimator", "sweeps", "seed", "threads"),
    "mdp-check": ("alpha",),
    "weak-limit": ("alpha",),
    "conjectures": ("h_grid", "output_path"),
}


class ConfigError(ValueError):
    """An experiment config is structurally invalid; the message names the field."""


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    spec: SequenceSpec | None = None
    beta: float | None = None
    kappa: float | None = None
    n: int | None = None
    n_list: tuple[int, ...] | None = None
    alpha: float | None = None
    a: float | None = None
    beta_min: float | None = None
    beta_max: float | None = None
    points: int | None = None
    sweeps: int | None = None
    burn_in: int | None = None
    h_grid: tuple[float, ...] | None = None
    estimator: str | None = None
    output_path: str | None = None
    seed: int | None = None
    threads: int | None = None

    def validate(self) -> None:
        if self.command not in COMMANDS:
            raise ConfigError(f"command: must be one of {COMMANDS}")
        allowed = set(_REQUIRED[self.command]) | set(_OPTIONAL[self.command])
        for field in dataclasses.fields(self):
            if field.name == "command":
                continue
            value = getattr(self, field.name)
            if field.name in _REQUIRED[self.command] and value is None:
                raise ConfigError(f"{field.name}: required by {self.command}")
            if value is not None and field.name not in allowed:
                raise ConfigError(f"{field.name}: not a field of {self.command}")
        if self.n_list is not None:
            if any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
                raise ConfigError("n_list: must be strictly increasing")
        if self.estimator is not None and self.estimator not in ("exact", "mc"):
            raise ConfigError("estimator: must be 'exact' or 'mc'")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _emit_json(doc: dict, output_path: str | None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2)
    if output_path:
        Path(output_path).write_text(text + "\n", encoding="utf-8")
    else:
        sys.stdout.write(text + "\n")


def _resolved_spec(config: ExperimentConfig) -> SequenceSpec:
    spec = config.spec
    if config.alpha is not None:
        spec = dataclasses.replace(spec, alpha=config.alpha)
    return spec


def _run_phase_diagram(config: ExperimentConfig) -> None:
    if config.points < 2:
        raise ConfigError("points: must be >= 2")
    if not (0 < config.beta_min < config.beta_max <= BETA_MAX):
        raise ConfigError("beta_min/beta_max: need 0 < beta_min < beta_max <= "
                          f"BETA_MAX = {BETA_MAX}, got {config.beta_min}, {config.beta_max}")
    rows = []
    for i in range(config.points):
        beta = config.beta_min + (config.beta_max - config.beta_min) * i / (config.points - 1)
        k1 = first_order_k(beta) if beta > BETA_C else None
        rows.append((beta, second_order_k(beta), k1))
    _write_csv(config.output_path, ["beta", "K_second_order", "K_first_order"], rows)


def _run_magnetize(config: ExperimentConfig) -> None:
    params = ModelParams(config.beta, config.kappa)
    m = harness.thermo_magnetization(params)
    _emit_json({"beta": config.beta, "kappa": config.kappa, "m": m,
                "free_energy_at_m": free_energy(params, m)},
               config.output_path)


def _run_finite_size(config: ExperimentConfig) -> None:
    params = ModelParams(config.beta, config.kappa)
    law = finite_size_law(config.n, params)
    probs = law.probabilities()
    rows = [(int(s), float(p)) for s, p in zip(law.support(), probs)]
    _write_csv(config.output_path, ["s", "probability"], rows)


def _run_mc(config: ExperimentConfig) -> None:
    params = ModelParams(config.beta, config.kappa)
    est = mc_estimate(config.n, params, sweeps=config.sweeps,
                      burn_in=config.burn_in, seed=config.seed or 0)
    _emit_json({"mean": est.mean, "stderr": est.stderr, "sweeps": est.sweeps,
                "seed": est.seed}, config.output_path)


def _sidecar_path(output_path: str) -> str:
    return str(Path(output_path).with_suffix(".json"))


def _run_sequence(config: ExperimentConfig) -> None:
    spec = _resolved_spec(config)
    estimator = (harness.Estimator.MONTE_CARLO if config.estimator == "mc"
                 else harness.Estimator.EXACT)
    # parallel rows merge in sorted order, so the thread count never changes
    # the artifact bytes
    threads = config.threads if config.threads is not None else os.cpu_count()
    report = harness.run_finite_size_asymptotics(
        spec, config.n_list, estimator=estimator, seed=config.seed or 0, threads=threads,
        sweeps=20000 if config.sweeps is None else config.sweeps)
    _write_csv(config.output_path,
               ["n", "beta_n", "kappa_n", "m_thermo", "e_finite", "scaled_m", "scaled_e"],
               [(r.n, r.beta_n, r.kappa_n, r.m_thermo, r.e_finite, r.scaled_m,
                 r.scaled_e) for r in report.rows])
    c = report.constants
    _emit_json({"alpha0": c.alpha0, "theta": c.theta, "regime": c.regime.value,
                "x_bar": c.x_bar, "y_bar": c.y_bar, "z_bar": c.z_bar,
                "banner": c.banner}, _sidecar_path(config.output_path))


def _run_mdp_check(config: ExperimentConfig) -> None:
    spec = _resolved_spec(config)
    report = harness.mdp_rate_estimate(spec, config.a, config.n_list)
    _write_csv(config.output_path, ["n", "rate_est", "saturated"],
               [(r.n, r.rate_est, r.saturated) for r in report.rows])
    _emit_json({"target": report.target, "a": report.a, "u": report.u},
               _sidecar_path(config.output_path))


def _run_weak_limit(config: ExperimentConfig) -> None:
    spec = _resolved_spec(config)
    rows = [(n, harness.weak_limit_distance(spec, n)) for n in config.n_list]
    _write_csv(config.output_path, ["n", "distance"], rows)


def _run_conjectures(config: ExperimentConfig) -> None:
    h_grid = config.h_grid or (1e-2, 1e-3)
    report = phase.verify_tricritical_conjectures(h_grid)
    _emit_json({"rows": [{"h": r.h, "k1_prime_est": r.k1_prime_est,
                          "k1_second_est": r.k1_second_est} for r in report.rows],
                "k_prime_ref": report.k_prime_ref,
                "ell_c_ref": report.ell_c_ref}, config.output_path)


_RUNNERS = {
    "phase-diagram": _run_phase_diagram,
    "magnetize": _run_magnetize,
    "finite-size": _run_finite_size,
    "mc": _run_mc,
    "sequence-run": _run_sequence,
    "mdp-check": _run_mdp_check,
    "weak-limit": _run_weak_limit,
    "conjectures": _run_conjectures,
}


def run(config: ExperimentConfig) -> int:
    """Validate and execute one experiment; returns a process exit status."""
    try:
        config.validate()
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        _RUNNERS[config.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - boundary: name the operation, fail nonzero
        print(f"{config.command} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok)


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags take precedence")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bclab",
        description="Mean-field Blume-Capel numerical laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phase-diagram", help="sample both transition curves to CSV")
    p.add_argument("--beta-min", type=float, dest="beta_min")
    p.add_argument("--beta-max", type=float, dest="beta_max")
    p.add_argument("--points", type=int)
    p.add_argument("-o", "--output", dest="output_path")
    _add_common(p)

    p = sub.add_parser("magnetize", help="thermodynamic magnetization at one point")
    p.add_argument("--beta", type=float)
    p.add_argument("--kappa", type=float)
    p.add_argument("-o", "--output", dest="output_path")
    _add_common(p)

    p = sub.add_parser("finite-size", help="exact law of the total spin to CSV")
    p.add_argument("--beta", type=float)
    p.add_argument("--kappa", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("-o", "--output", dest="output_path")
    _add_common(p)

    p = sub.add_parser("mc", help="Metropolis estimate of E|S_n/n| as JSON")
    p.add_argument("--beta", type=float)
    p.add_argument("--kappa", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--sweeps", type=int)
    p.add_argument("--burn-in", type=int, dest="burn_in")
    p.add_argument("--seed", type=int)
    p.add_argument("-o", "--output", dest="output_path")
    _add_common(p)

    p = sub.add_parser("sequence-run", help="finite-size asymptotics report (CSV + JSON sidecar)")
    p.add_argument("--spec", dest="spec", help="SequenceSpec JSON file")
    p.add_argument("--n", dest="n_list", type=_int_list, help="comma-separated n values")
    p.add_argument("--alpha", type=float, help="override the spec's alpha")
    p.add_argument("--estimator", choices=("exact", "mc"))
    p.add_argument("--sweeps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int)
    p.add_argument("-o", "--output", dest="output_path")
    _add_common(p)

    p = sub.add_parser("mdp-check", help="tail-decay rate estimates along a sequence")
    p.add_argument("--spec", dest="spec")
    p.add_argument("--a", type=float)
    p.add_argument("--n", dest="n_list", type=_int_list)
    p.add_argument("--alpha", type=float)
    p.add_argument("-o", "--output", dest="output_path")
    _add_common(p)

    p = sub.add_parser("weak-limit", help="Kolmogorov distances to the limit density")
    p.add_argument("--spec", dest="spec")
    p.add_argument("--n", dest="n_list", type=_int_list)
    p.add_argument("--alpha", type=float)
    p.add_argument("-o", "--output", dest="output_path")
    _add_common(p)

    p = sub.add_parser("conjectures", help="tricritical-curve derivative estimates as JSON")
    p.add_argument("--h", dest="h_grid", type=_float_list,
                   help="comma-separated decreasing finite-difference steps")
    p.add_argument("-o", "--output", dest="output_path")
    _add_common(p)

    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    file_values: dict = {}
    if getattr(args, "config", None):
        file_values = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(file_values, dict):
            raise ConfigError("config: file must hold a JSON object")

    names = [f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "command"]
    unknown = sorted(set(file_values) - set(names))
    if unknown:
        raise ConfigError(f"config: unknown keys {', '.join(unknown)}")
    merged: dict = {}
    for name in names:
        flag_value = getattr(args, name, None)
        value = flag_value if flag_value is not None else file_values.get(name)
        if value is not None:
            merged[name] = value

    if "spec" in merged and not isinstance(merged["spec"], SequenceSpec):
        raw = merged["spec"]
        if isinstance(raw, str):
            raw = json.loads(Path(raw).read_text(encoding="utf-8"))
        merged["spec"] = spec_from_json(raw)
    for key in ("n_list", "h_grid"):
        if key in merged and not isinstance(merged[key], tuple):
            merged[key] = tuple(merged[key])
    if merged.get("threads") is None and os.environ.get("BCLAB_THREADS"):
        merged["threads"] = int(os.environ["BCLAB_THREADS"])
    return ExperimentConfig(command=args.command, **merged)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
