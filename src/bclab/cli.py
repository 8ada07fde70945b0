"""Command-line front door: parse an experiment config, dispatch to the
harness, and write CSV/JSON artifacts deterministically.

Identical config and seed produce byte-identical files: floats are printed
with 17 significant digits, rows are emitted in a fixed order, and all files
are UTF-8 with LF line endings. Two tables drive the parser, the config checks
and dispatch: each ``ExperimentConfig`` field declares its config key's flags,
converter and help (collected in ``_FIELDS``), and ``_COMMANDS`` gives each
command its runner and fields. A config-file value is used only when the flag
is absent; both pass the same converter. Reports are written from their
dataclasses, whose fields are the schema: a CSV header is the row fields in
order, a JSON document ``dataclasses.asdict``. The array layers are read as
attributes of the package, which loads them at first use, so ``magnetize``,
``phase-diagram`` and ``conjectures`` never load numpy.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import bclab

from . import phase
from .minimize import min_free_energy
from .model import BETA_MAX, ModelParams
from .phase import BETA_C, first_order_k, second_order_k


class ConfigError(ValueError):
    """An experiment config is structurally invalid; the message names the field."""


def _number(kind: type, parse=None):
    """Converter for a number field: parses a flag string (with kind unless
    parse is given); takes a JSON number but no bool, and for an int field
    only an integral one."""
    def convert(value):
        if isinstance(value, str):
            return (parse or kind)(value)
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or kind is int and not float(value).is_integer()):
            raise ValueError(f"expected {kind.__name__}, got {value!r}")
        return kind(value)
    return convert


_INT, _FLOAT = _number(int), _number(float)
_ALPHA = _number(float, lambda text: bclab.sequences._parse_alpha(text))


def _list(item):
    """Converter for a list field: a comma-separated string or a JSON list."""
    def convert(value) -> tuple:
        if isinstance(value, str):
            value = [tok for tok in value.split(",") if tok]
        if not isinstance(value, list):
            raise ValueError(f"expected a list, got {value!r}")
        return tuple(item(v) for v in value)
    return convert


def _text(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _estimator(value) -> str:
    if value not in ("exact", "mc"):
        raise ValueError("must be 'exact' or 'mc'")
    return value


def _spec(value) -> bclab.sequences.SequenceSpec:
    """A SequenceSpec from a JSON file path or an inline JSON object."""
    return bclab.sequences.spec_from_json(
        Path(value).read_text(encoding="utf-8") if isinstance(value, str) else value)


class _Field(NamedTuple):
    flags: tuple[str, ...]
    convert: Callable
    help: str


def _field(flags: tuple[str, ...], convert: Callable, help: str):
    """An ExperimentConfig field (and config-file key) and its _Field."""
    return dataclasses.field(default=None, metadata={"cli": _Field(flags, convert, help)})


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    spec: bclab.sequences.SequenceSpec | None = _field(("--spec",), _spec,
                                                       "SequenceSpec JSON file")
    beta: float | None = _field(("--beta",), _FLOAT, "inverse temperature")
    kappa: float | None = _field(("--kappa",), _FLOAT, "interaction strength K")
    n: int | None = _field(("--n",), _INT, "number of spins")
    n_list: tuple[int, ...] | None = _field(("--n",), _list(_INT), "comma-separated n values")
    alpha: float | None = _field(("--alpha",), _ALPHA,
                                 "override the spec's alpha; a rational such as 1/3 is exact")
    a: float | None = _field(("--a",), _FLOAT, "tail threshold, above xbar")
    beta_min: float | None = _field(("--beta-min",), _FLOAT, "first beta of the grid")
    beta_max: float | None = _field(("--beta-max",), _FLOAT, "last beta of the grid")
    points: int | None = _field(("--points",), _INT, "number of grid points, >= 2")
    sweeps: int | None = _field(("--sweeps",), _INT, "Metropolis sweeps")
    burn_in: int | None = _field(("--burn-in",), _INT, "Metropolis sweeps discarded first")
    h_grid: tuple[float, ...] | None = _field(
        ("--h",), _list(_FLOAT), "comma-separated decreasing finite-difference steps")
    estimator: str | None = _field(("--estimator",), _estimator, "exact or mc")
    output_path: str | None = _field(("-o", "--output"), _text, "output file")
    seed: int | None = _field(("--seed",), _INT, "Metropolis seed")
    threads: int | None = _field(("--threads",), _INT,
                                 "row workers (default: rows run serially)")

    def validate(self) -> None:
        if self.command not in _COMMANDS:
            raise ConfigError(f"command: must be one of {tuple(_COMMANDS)}")
        command = _COMMANDS[self.command]
        for name in _FIELDS:
            value = getattr(self, name)
            if name in command.required and value is None:
                raise ConfigError(f"{name}: required by {self.command}")
            if value is not None and name not in command.required + command.optional:
                raise ConfigError(f"{name}: not a field of {self.command}")
        for name, item in (("n_list", "n"), ("h_grid", "h")):
            if getattr(self, name) == ():
                raise ConfigError(f"{name}: must hold at least one {item}")
        if self.n_list and any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            raise ConfigError("n_list: must be strictly increasing")


# Each config key's _Field, in ExperimentConfig's order.
_FIELDS = {f.name: f.metadata["cli"] for f in dataclasses.fields(ExperimentConfig)
           if "cli" in f.metadata}


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
    # the only other values in a report are enums (Regime), written as their values
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False, default=lambda e: e.value)
    if output_path:
        Path(output_path).write_text(text + "\n", encoding="utf-8")
    else:
        sys.stdout.write(text + "\n")


def _write_report(output_path: str, rows, sidecar: dict) -> None:
    """Report rows to CSV, headed by the row fields in order; the sidecar beside it."""
    names = [f.name for f in dataclasses.fields(rows[0])]
    _write_csv(output_path, names, ([getattr(row, name) for name in names] for row in rows))
    _emit_json(sidecar, _sidecar_path(output_path))


def _given(config: ExperimentConfig, *names: str) -> dict:
    """The named fields that are set: an absent one takes the callee's default."""
    return {name: getattr(config, name) for name in names if getattr(config, name) is not None}


def _resolved_spec(config: ExperimentConfig) -> bclab.sequences.SequenceSpec:
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
    g, m = min_free_energy(params)
    if not math.isfinite(g):
        raise OverflowError(f"free_energy at m = {m:g} overflows to {g}: "
                            "beta K is beyond the largest float")
    _emit_json({"beta": config.beta, "kappa": config.kappa, "m": m, "free_energy_at_m": g},
               config.output_path)


def _run_finite_size(config: ExperimentConfig) -> None:
    law = bclab.finite_size.finite_size_law(config.n, ModelParams(config.beta, config.kappa))
    _write_csv(config.output_path, ["s", "probability"],
               zip(range(-law.n, law.n + 1), law.probabilities().tolist()))


def _run_mc(config: ExperimentConfig) -> None:
    est = bclab.finite_size.mc_estimate(config.n, ModelParams(config.beta, config.kappa),
                                        config.sweeps, **_given(config, "burn_in", "seed"))
    _emit_json(dataclasses.asdict(est), config.output_path)


def _sidecar_path(output_path: str) -> str:
    return str(Path(output_path).with_suffix(".json"))


def _run_sequence(config: ExperimentConfig) -> None:
    spec = _resolved_spec(config)
    estimator = (bclab.harness.Estimator.MONTE_CARLO if config.estimator == "mc"
                 else bclab.harness.Estimator.EXACT)
    # rows run serially unless --threads asks for a pool; parallel rows merge
    # in sorted order, so the thread count never changes the artifact bytes
    report = bclab.harness.run_finite_size_asymptotics(
        spec, config.n_list, estimator, **_given(config, "sweeps", "seed", "threads"))
    _write_report(config.output_path, report.rows, dataclasses.asdict(report.constants))


def _run_mdp_check(config: ExperimentConfig) -> None:
    spec = _resolved_spec(config)
    report = bclab.harness.mdp_rate_estimate(spec, config.a, config.n_list)
    sidecar = dataclasses.asdict(report)
    del sidecar["rows"]
    _write_report(config.output_path, report.rows, sidecar)


def _run_weak_limit(config: ExperimentConfig) -> None:
    spec = _resolved_spec(config)
    rows = [(n, bclab.harness.weak_limit_distance(spec, n)) for n in config.n_list]
    _write_csv(config.output_path, ["n", "distance"], rows)


def _run_conjectures(config: ExperimentConfig) -> None:
    report = phase.verify_tricritical_conjectures(**_given(config, "h_grid"))
    _emit_json(dataclasses.asdict(report), config.output_path)


class _Command(NamedTuple):
    run: Callable[[ExperimentConfig], None]
    help: str
    required: tuple[str, ...]
    optional: tuple[str, ...] = ()
    sidecar: bool = False   # also writes output_path with suffix .json


_COMMANDS = {
    "phase-diagram": _Command(_run_phase_diagram, "sample both transition curves to CSV",
                              ("beta_min", "beta_max", "points", "output_path")),
    "magnetize": _Command(_run_magnetize, "thermodynamic magnetization at one point",
                          ("beta", "kappa"), ("output_path",)),
    "finite-size": _Command(_run_finite_size, "exact law of the total spin to CSV",
                            ("beta", "kappa", "n", "output_path")),
    "mc": _Command(_run_mc, "Metropolis estimate of E|S_n/n| as JSON",
                   ("beta", "kappa", "n", "sweeps"), ("burn_in", "seed", "output_path")),
    "sequence-run": _Command(_run_sequence, "finite-size asymptotics report (CSV + JSON sidecar)",
                             ("spec", "n_list", "output_path"),
                             ("alpha", "estimator", "sweeps", "seed", "threads"), sidecar=True),
    "mdp-check": _Command(_run_mdp_check, "tail-decay rate estimates along a sequence",
                          ("spec", "a", "n_list", "output_path"), ("alpha",), sidecar=True),
    "weak-limit": _Command(_run_weak_limit, "Kolmogorov distances to the limit density",
                           ("spec", "n_list", "output_path"), ("alpha",)),
    "conjectures": _Command(_run_conjectures, "tricritical-curve derivative estimates as JSON",
                            (), ("h_grid", "output_path")),
}


def run(config: ExperimentConfig) -> int:
    """Validate and execute one experiment; returns a process exit status."""
    try:
        config.validate()
        _COMMANDS[config.command].run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - boundary: name the operation, fail nonzero
        print(f"{config.command} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The bclab parser with every command's subparser, or with only the one
    that command names. Its usage line lists every command either way, so the
    named command's help, usage and error text are the full parser's."""
    parser = argparse.ArgumentParser(
        prog="bclab",
        description="Mean-field Blume-Capel numerical laboratory")
    # argparse shows the subparser choices as {a,b,...}; a one-command parser
    # is given that text of the full set as its metavar
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        cmd = _COMMANDS[name]
        p = sub.add_parser(name, help=cmd.help)
        for key in cmd.required + cmd.optional:
            field = _FIELDS[key]
            p.add_argument(*field.flags, dest=key, help=field.help)
        p.add_argument("--config", help="JSON config file; flags take precedence")
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Merge flag and config-file values (flags win) and convert each through
    its field's converter; a bad value raises ConfigError naming the field, as
    does an output_path that would overwrite the spec file."""
    file_values: dict = {}
    if args.config:
        file_values = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(file_values, dict):
            raise ConfigError("config: file must hold a JSON object")
    unknown = sorted(set(file_values) - set(_FIELDS))
    if unknown:
        raise ConfigError(f"config: unknown keys {', '.join(unknown)}")
    merged: dict = {}
    for name, field in _FIELDS.items():
        value = getattr(args, name, None)
        value = file_values.get(name) if value is None else value
        try:
            if value is not None:
                merged[name] = field.convert(value)
        except (TypeError, ValueError, ArithmeticError, OSError) as exc:
            raise ConfigError(f"{name}: {exc}") from None
    spec_file = getattr(args, "spec", None) or file_values.get("spec")
    out = merged.get("output_path")
    if isinstance(spec_file, str) and out:
        written = [out, _sidecar_path(out)] if _COMMANDS[args.command].sidecar else [out]
        if Path(spec_file).resolve() in [Path(path).resolve() for path in written]:
            raise ConfigError(f"output_path: {out} or its sidecar is the spec file {spec_file}")
    return ExperimentConfig(command=args.command, **merged)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # building one subparser instead of eight saves about 2 ms a call; --help,
    # a missing command and an unknown one get the full parser
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        config = config_from_args(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
