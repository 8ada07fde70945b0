"""bclab benchmark: one workload, timed end to end, every output oracle-checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: crossover-exact, phase-curve and mc-crosscheck (see
perfbench/WORKLOADS.md). Each iteration runs in a fresh interpreter
(``child.py``), so caches start cold. Iterations repeat until ``--seconds``
have passed, and at least three run; timings are medians over iterations.
With ``--trace 0`` every iteration is untraced and the end-to-end metrics are
reported. With ``--trace 1`` untraced and traced iterations alternate, each
pair on the same inputs, and the per-layer metrics are reported, including
the tracing overhead.

Human-readable lines (metrics with units and sample counts, the failure
share, accuracy figures, provenance) come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. The program exits nonzero without a result when the bclab sources
are missing or an iteration crashes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = HERE / ".cache"
WORK = HERE / ".work"
SETUP_SAMPLES = 5
MIN_ITERATIONS = 3
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))


def _spawn(args: list[str], out: Path) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--src", str(SRC), "--out", str(out),
           "--spawned", repr(time.monotonic()), *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"iteration process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(out.read_text(encoding="utf-8"))


def _cached(name: str, seed: int):
    """Inputs and oracle values for (workload, seed), cached on disk.

    They depend only on the benchmark's own code, never on bclab's, so the
    cache key is the workload, the seed and a digest of the files that make them.
    """
    import checks
    import workloads
    digest = hashlib.sha256(b"".join((HERE / f).read_bytes() for f in
                                     ("oracles.py", "checks.py", "workloads.py"))).hexdigest()
    path = CACHE / f"{name}-{seed}-{digest[:16]}.json"
    if path.is_file():
        doc = json.loads(path.read_text(encoding="utf-8"))
        return doc["inputs"], doc["expected"]
    inputs = json.loads(json.dumps(workloads.make_inputs(name, seed)))
    exp = checks.expected(name, inputs)
    CACHE.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"inputs": inputs, "expected": exp}), encoding="utf-8")
    tmp.replace(path)
    return inputs, exp


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(name: str, seed: int, seconds: int, trace: int, inputs: dict) -> dict:
    import mpmath
    import numpy
    import scipy
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "bclab").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "git_commit": _git_commit(), "bclab_source_sha256": src_hash.hexdigest(),
            "inputs": inputs}


def law_max_rel_err(exp: dict, laws: dict) -> float:
    """Largest relative error of any traced law probability against the mpmath law."""
    import numpy as np
    err = 0.0
    for key, log_p in laws.items():
        ref = exp.get("laws", {}).get(key)
        if ref is not None:
            err = max(err, float(np.max(np.abs(np.expm1(np.asarray(log_p) - np.asarray(ref))))))
    return err


# Per-layer accuracy metrics taken from the checks' figures (max over the run).
STAT_METRICS = {
    "phase.first_order_k.max_abs_err": "k1_max_abs_err",
    "phase.first_order_k.tol_misses": "k1_tol_misses",
    "minimize.magnetization.max_abs_gprime": "gprime_max",
    "minimize.magnetization.last_cell_misses": "m_last_cell_misses",
    "finite_size.mc_estimate.max_z": "mc_max_z",
}


def main(argv: list[str]) -> int:
    import workloads
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "bclab" / "__init__.py").is_file():
        print(f"bclab sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    import checks
    name = args.workload
    inputs, exp = _cached(name, args.seed)
    WORK.mkdir(exist_ok=True)
    attempted = failed = 0
    messages: list[str] = []
    stats: dict[str, float] = {}
    untraced: list[dict] = []
    traced: list[dict] = []
    reference_hashes = None

    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        tmp = Path(tmp)
        (tmp / "inputs.json").write_text(json.dumps(inputs), encoding="utf-8")
        deadline = time.monotonic() + args.seconds
        while True:
            trace_now = bool(args.trace) and len(untraced) > len(traced)
            i = len(untraced) + len(traced)
            draw = i // 2 if args.trace else i   # a traced iteration repeats its pair's draw
            workdir = tmp / f"iter{i}"
            workdir.mkdir()
            res = _spawn(["--workload", name, "--inputs", str(tmp / "inputs.json"),
                          "--workdir", str(workdir), "--trace", str(int(trace_now)),
                          "--draw", str(draw)],
                         tmp / f"result{i}.json")
            try:
                outcome = checks.check(name, inputs, exp, res["outputs"], res["files"], draw)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                outcome = checks.Outcome()
                outcome.op(f"iteration {i}", [f"outputs unreadable: {type(exc).__name__}: {exc}"])
            attempted += outcome.attempted
            failed += outcome.failed
            messages += outcome.messages
            for key, value in outcome.stats.items():
                stats[key] = max(stats.get(key, 0.0), value)
            attempted += 1  # determinism: every iteration writes the same bytes
            if reference_hashes is None:
                reference_hashes = res["hashes"]
            elif res["hashes"] != reference_hashes:
                failed += 1
                messages.append(f"iteration {i} (traced={trace_now}): artifacts differ "
                                "from the first iteration's")
            if trace_now:
                attempted += 1  # coverage: every layer the workload calls was reached
                missing = workloads.missing_counts(name, res["counts"])
                if missing:
                    failed += 1
                    messages.append(f"traced iteration {i}: zero calls at {missing}")
                res["layers"]["finite_size.finite_size_law.max_rel_err"] = law_max_rel_err(
                    exp, res.pop("laws"))
                traced.append(res)
            else:
                untraced.append(res)
            res.pop("outputs")
            res.pop("files")
            if (time.monotonic() >= deadline
                    and len(untraced) + len(traced) >= MIN_ITERATIONS):
                break
        setup = [r["setup_s"] for r in untraced + traced]
        for j in range(SETUP_SAMPLES - len(setup)):
            setup.append(_spawn(["--setup-only"], tmp / f"setup{j}.json")["setup_s"])

    walls = [r["wall_s"] for r in untraced]
    if args.trace:
        metrics = {key: statistics.median(r["layers"][key] for r in traced)
                   for key in traced[0]["layers"]}
        metrics.update((key, stats.get(stat, 0.0)) for key, stat in STAT_METRICS.items())
        # pair j is untraced iteration j and traced iteration j, on the same draw
        metrics["trace.overhead_frac"] = statistics.median(
            t["wall_s"] / u["wall_s"] - 1.0 for u, t in zip(untraced, traced))
        units = {key: _unit(key) for key in metrics}
        samples = len(traced)
    else:
        metrics = {"wall_s": statistics.median(walls),
                   "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
                   "setup_s": statistics.median(setup),
                   "peak_rss_mb": statistics.median(r["rss_mb"] for r in untraced)}
        units = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        samples = len(untraced)

    print(f"bclab benchmark: workload {name}, seed {args.seed}, trace {args.trace}, "
          f"{len(untraced)} untraced + {len(traced)} traced iterations")
    for key, value in metrics.items():
        if key in ("wall_s", "cpu_s", "peak_rss_mb"):
            q1, q3 = _quartiles([r[{"peak_rss_mb": "rss_mb"}.get(key, key)] for r in untraced])
            extra = f"  (median of {samples}; q1 {q1:.6g}, q3 {q3:.6g})"
        elif key == "setup_s":
            q1, q3 = _quartiles(setup)
            extra = f"  (median of {len(setup)}; q1 {q1:.6g}, q3 {q3:.6g})"
        else:
            extra = f"  (median of {samples})"
        print(f"  {key:<52} {value:>14.6g} {units[key]}{extra}")
    print("  untraced walls: " + " ".join(f"{w:.4f}" for w in walls)
          + "".join(f"; traced {r['wall_s']:.4f}" for r in traced))
    print(f"  {'fail_frac':<52} {failed / attempted:>14.6g} ratio  "
          f"({failed} failed of {attempted} operations)")
    for key, value in sorted(stats.items()):
        print(f"  accuracy {key:<43} {value:>14.6g}")
    for line in messages[:20]:
        print(f"  FAILED {line}")
    print("provenance " + json.dumps(provenance(name, args.seed, args.seconds, args.trace,
                                                inputs), sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


def _unit(key: str) -> str:
    last = key.rsplit(".", 1)[-1]
    if last in ("calls", "states", "steps", "max_n", "rows", "spans", "tol_misses",
                "last_cell_misses"):
        return "count"
    if last.endswith("_s"):
        return "s"
    if last in ("repeat_share", "cpu_share", "overhead_frac"):
        return "ratio"
    return {"p50_us": "us", "p50_ms": "ms", "ns_per_state": "ns", "ns_per_step": "ns",
            "bytes": "bytes"}.get(last, "1")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
