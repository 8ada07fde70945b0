"""Pool k pytest-benchmark JSON runs of one side of a BENCH pair into one file.

    python3 bench/pool.py RUN1.json RUN2.json RUN3.json -o bench/BENCH_<pr>.json

Each benchmark's rounds from all runs give one set of statistics (min, max,
mean, stddev, rounds, median, iqr, q1, q3, ops, total, iterations), and the
median and minimum of each run are kept beside them as run_medians and
run_mins; the raw rounds are dropped. extra_info is the first run's, with
every run's own under "runs" where they differ. Machine, commit and version
are the first run's, and run_datetimes lists the start of each run.
"""

import argparse
import json

from pytest_benchmark.stats import Stats

FIELDS = ("min", "max", "mean", "stddev", "rounds", "median", "iqr", "q1", "q3", "ops", "total")


def pool(runs: list[dict]) -> dict:
    benchmarks = []
    for bench in runs[0]["benchmarks"]:
        same = [next(b for b in run["benchmarks"] if b["fullname"] == bench["fullname"])
                for run in runs]
        stats = Stats()
        for b in same:
            stats.data.extend(b["stats"]["data"])
        pooled = {field: getattr(stats, field) for field in FIELDS}
        pooled.update(iterations=bench["stats"]["iterations"],
                      run_medians=[b["stats"]["median"] for b in same],
                      run_mins=[b["stats"]["min"] for b in same])
        infos = [b["extra_info"] for b in same]
        extra = dict(infos[0])
        if any(info != infos[0] for info in infos):
            extra["runs"] = infos
        benchmarks.append(dict(bench, extra_info=extra, stats=pooled))
    first = runs[0]
    return {"machine_info": first["machine_info"], "commit_info": first["commit_info"],
            "benchmarks": benchmarks, "datetime": first["datetime"],
            "version": first["version"], "run_datetimes": [run["datetime"] for run in runs]}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("runs", nargs="+", help="pytest-benchmark JSON files of one side")
    p.add_argument("-o", "--output", required=True)
    args = p.parse_args()
    runs = []
    for path in args.runs:
        with open(path, encoding="utf-8") as f:
            runs.append(json.load(f))
    with open(args.output, "w", encoding="utf-8") as f:
        json.dump(pool(runs), f, indent=4)


if __name__ == "__main__":
    main()
