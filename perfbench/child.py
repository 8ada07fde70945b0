"""One workload iteration in a fresh interpreter, so bclab's law cache and K1
memo start cold as in a user's CLI invocation.

Usage: python3 child.py --src DIR --workload NAME --inputs FILE --workdir DIR
                        --trace 0|1 --draw I --spawned T --out FILE
       python3 child.py --src DIR --spawned T --out FILE --setup-only

``--spawned`` is the parent's ``time.monotonic()`` just before it started this
process; the set-up time is measured from there until ``import bclab``
returns. The timed region covers only the workload body. Artifacts are read,
and traced spans are reduced to layer metrics, after it ends.
"""

import sys
import time


def _import_bclab(src: str):
    sys.path.insert(0, src)
    import bclab  # noqa: F401 - the import is what is being timed
    return bclab


def _peak_rss_mb() -> float:
    """Peak resident set of this process alone. getrusage's ru_maxrss would
    also count the parent's resident set at the time it started this process."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main(argv: list[str]) -> int:
    import argparse
    p = argparse.ArgumentParser()
    p.add_argument("--src", required=True)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--inputs")
    p.add_argument("--workdir")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--draw", type=int, default=0)
    args = p.parse_args(argv)

    bclab = _import_bclab(args.src)
    setup_s = time.monotonic() - args.spawned
    import bclab.cli  # noqa: F401 - the package does not import its CLI module

    import json
    from pathlib import Path
    out_path = Path(args.out)
    if args.setup_only:
        out_path.write_text(json.dumps({"setup_s": setup_s}), encoding="utf-8")
        return 0

    import hashlib

    import workloads
    from tracer import Tracer

    name = args.workload
    inputs = json.loads(Path(args.inputs).read_text(encoding="utf-8"))
    workdir = Path(args.workdir)
    workloads.prepare(name, inputs, workdir)
    estimates = workloads.record_estimates(bclab)
    tracer = Tracer(capture=workloads.CAPTURE)
    if args.trace:
        tracer.install()

    c0 = time.process_time()
    t0 = time.perf_counter()
    outputs = workloads.run(name, bclab, inputs, workdir, args.draw)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0

    tracer.uninstall()
    outputs["estimates"] = estimates
    rss_mb = _peak_rss_mb()
    files, hashes = {}, {}
    for c in outputs["cli"]:
        for artifact in c["artifacts"]:
            path = workdir / artifact
            if path.is_file():
                data = path.read_bytes()
                files[artifact] = data.decode("utf-8")
                hashes[artifact] = hashlib.sha256(data).hexdigest()
    result = {"setup_s": setup_s, "wall_s": wall, "cpu_s": cpu, "rss_mb": rss_mb,
              "outputs": outputs, "files": files, "hashes": hashes}
    if args.trace:
        import layers
        result["layers"], result["laws"] = layers.reduce(tracer, cpu)
        result["counts"] = dict(tracer.counts)
    out_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
