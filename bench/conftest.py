"""Micro-benchmarks of single bclab layers, each next to an accuracy figure.

Not part of the test suite (pytest collects only ``tests``). Needs the
``bench`` extra (pytest-benchmark, mpmath, scipy: ``pip install -e ".[bench]"``).
Run from the repository root:

    python3 -m pytest bench --benchmark-json OUT.json

The JSON records numpy and scipy versions and the usable CPU count besides
pytest-benchmark's own machine description.

A BENCH_<pr>.json / BENCH_<pr>.parent.json pair compares a change with its
parent on one machine. Check out both sides at paths of equal length, run
this file at least three times a side, alternating parent and change, and
pool each side's runs with ``bench/pool.py``:

    python3 bench/pool.py change-1.json change-2.json change-3.json -o bench/BENCH_<pr>.json
"""

import os
import sys
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]


def pytest_benchmark_update_machine_info(config, machine_info):
    machine_info["numpy"] = numpy.__version__
    machine_info["scipy"] = scipy.__version__
    machine_info["nproc"] = len(os.sched_getaffinity(0))
