"""Self-tests of the benchmark's tracer and oracles.

Run from the repository root with: python3 -m pytest perfbench -q
"""

import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import bclab  # noqa: E402
import bclab.cli  # noqa: E402
import checks  # noqa: E402
import oracles  # noqa: E402
import tracer as T  # noqa: E402
import workloads  # noqa: E402


def span(sid, parent, start, end, cpu=0.0, thread=1):
    return T.Span(sid, parent, f"s{sid}", start, end, cpu, thread, (), {})


def test_self_time_of_nested_and_overlapping_spans():
    spans = [span(0, None, 0.0, 10.0),
             span(1, 0, 1.0, 3.0, thread=2),     # overlaps span 2: counted once
             span(2, 0, 2.0, 5.0, thread=3),
             span(3, 0, 6.0, 7.0),
             span(4, 1, 1.5, 2.0, thread=2),
             span(5, 3, 6.5, 8.0)]               # clipped to its parent's interval
    own = T.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[1] == pytest.approx(2.0 - 0.5)
    assert own[3] == pytest.approx(1.0 - 0.5)
    assert own[4] == pytest.approx(0.5)


def test_cpu_self_time_charges_other_threads_to_themselves():
    spans = [span(0, None, 0, 10, cpu=4.0, thread=1),
             span(1, 0, 1, 2, cpu=1.0, thread=1),
             span(2, 0, 1, 9, cpu=3.0, thread=2)]
    own = T.self_cpu(spans)
    assert own == {0: pytest.approx(3.0), 1: 1.0, 2: 3.0}


def _public_functions():
    for layer in T.LAYERS:
        mod = sys.modules[f"bclab.{layer}"]
        for attr, obj in vars(mod).items():
            if not attr.startswith("_") and callable(obj) and getattr(obj, "__module__", "") == mod.__name__:
                yield f"{layer}.{attr}", obj


def test_install_rebinds_every_copy_of_every_public_function():
    originals = dict(_public_functions())
    tracer = T.Tracer()
    names = tracer.install()
    try:
        assert bclab.harness.finite_size_law is names["finite_size.finite_size_law"]
        assert bclab.finite_size.finite_size_law is names["finite_size.finite_size_law"]
        assert bclab.finite_size_law is names["finite_size.finite_size_law"]
        assert bclab.phase.min_free_energy is names["minimize.min_free_energy"]
        modules = [sys.modules[f"bclab.{layer}"] for layer in T.LAYERS] + [bclab]
        by_id = {id(fn): name for name, fn in originals.items()
                 if name in names}
        stale = [f"{mod.__name__}.{attr}" for mod in modules
                 for attr, obj in vars(mod).items() if id(obj) in by_id]
        assert stale == []
    finally:
        tracer.uninstall()
    assert bclab.harness.finite_size_law is originals["finite_size.finite_size_law"]


def test_pool_thread_spans_are_parented_to_the_harness_span():
    bclab.finite_size._law_cached.cache_clear()
    tracer = T.Tracer()
    tracer.install()
    try:
        spec = bclab.SequenceSpec(kind="seq1", alpha=0.3, beta=1.0, b=0, k=1.0)
        bclab.harness.run_finite_size_asymptotics(spec, [40, 60, 80, 100], threads=2)
    finally:
        tracer.uninstall()
    (outer,) = [s for s in tracer.spans if s.name == "harness.run_finite_size_asymptotics"]
    laws = [s for s in tracer.spans if s.name == "finite_size.finite_size_law"]
    assert len(laws) == 4
    assert all(s.parent == outer.sid for s in laws)
    assert all(s.thread != outer.thread for s in laws)


def test_a_bypassed_binding_leaves_a_zero_count():
    for bypass, beta in ((False, 2.0), (True, 2.1)):  # distinct betas miss the K1 memo
        tracer = T.Tracer()
        tracer.install()
        if bypass:  # as if install had missed the copy phase imported
            bclab.phase.min_free_energy = next(
                o for m, a, o in tracer._restore
                if m is bclab.phase and a == "min_free_energy")
        try:
            bclab.phase.first_order_k(beta)
        finally:
            tracer.uninstall()
        missing = "minimize.min_free_energy" in workloads.missing_counts(
            "phase-curve", tracer.counts)
        assert missing == bypass


def test_traced_cli_artifacts_are_byte_identical(tmp_path):
    spec = tmp_path / "seq1.json"
    spec.write_text(json.dumps(workloads.seq1(1.0, 1.0, 0.8)), encoding="utf-8")
    outputs = []
    for traced in (False, True):
        bclab.finite_size._law_cached.cache_clear()
        out = tmp_path / f"run{int(traced)}.csv"
        tracer = T.Tracer(capture=workloads.CAPTURE)
        if traced:
            tracer.install()
        try:
            code = bclab.cli.main(["sequence-run", "--spec", str(spec), "--n", "50,100,200",
                                   "--threads", "2", "-o", str(out)])
        finally:
            tracer.uninstall()
        assert code == 0
        outputs.append((out.read_bytes(), out.with_suffix(".json").read_bytes()))
        assert bool(tracer.spans) == traced
    assert outputs[0] == outputs[1]


def test_spin_law_oracle_matches_brute_force():
    beta, kappa = 1.3, 0.9
    for n in range(1, 7):
        w = np.zeros(2 * n + 1)
        for cfg in itertools.product((-1, 0, 1), repeat=n):
            s = sum(cfg)
            w[s + n] += math.exp(-beta * (sum(x * x for x in cfg) - kappa / n * s * s))
        assert np.max(np.abs(w[n:] / w.sum() - oracles.SpinLaw(n, beta, kappa).probs())) < 1e-15


def test_first_order_curve_oracle_is_the_coexistence_point():
    beta = 2.0
    k1 = oracles.first_order_k(beta)
    m = oracles.magnetization(beta, k1 * (1 + 1e-9))
    below = oracles.magnetization(beta, k1 * (1 - 1e-9))
    assert m > 0.5 and below == 0.0


def test_known_defect_exemptions_cover_only_the_defect():
    assert checks.k1_fail_tol(oracles.BETA_C + 1.5e-3) == checks.K1_DOC_TOL
    assert checks.k1_fail_tol(oracles.BETA_C + 1.5e-4) == checks.K1_BAND_TOL
    # oracle m in the scan's last cell: only a returned 0 is exempt
    inputs = {"points": [[3.0, 2.1], [3.0, 2.1]], "betas": [[]]}
    exp = {"grid": [], "k1": [[]], "points": [{"region": "coexistence", "m": 0.9999}] * 2}
    calls = [{"op": "classify", "value": "coexistence", "error": None}] * 2 + [
        {"op": "magnetization", "value": 0.0, "error": None},
        {"op": "magnetization", "value": 0.5, "error": None}]
    out = checks.check("phase-curve", inputs, exp, {"cli": [], "calls": calls}, {}, 0)
    assert out.stats["m_last_cell_misses"] == 1
    assert [m for m in out.messages if m.startswith("magnetization")] == [
        "magnetization(3.0, 2.1): m 0.5 vs oracle 0.9999; |G'(m)| = "
        f"{oracles.free_energy_grad(3.0, 2.1, 0.5):.3g}"]
