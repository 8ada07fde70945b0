"""Micro-benchmarks of single bclab layers, each next to an accuracy figure.

Not part of the test suite (pytest collects only ``tests``). Needs the
``bench`` extra (pytest-benchmark, mpmath, scipy: ``pip install -e ".[bench]"``).
Run from the repository root:

    python3 -m pytest bench --benchmark-json OUT.json

The JSON records numpy and scipy versions and the usable CPU count besides
pytest-benchmark's own machine description.
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
