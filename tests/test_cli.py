"""CLI dispatch, config handling, artifact formats, and determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bclab
from bclab import gl_polynomial, magnetization, spec_from_json, xbar
from bclab.cli import _COMMANDS, ExperimentConfig, ConfigError, _emit_json, build_parser, main
from bclab.model import ModelParams
from mp_reference import exp_poly_abs_moment_mp

SEQ1_DOC = {"kind": "seq1", "alpha": 0.3, "beta": 1.0, "b": 0, "k": 1.0}


def write_spec(tmp_path, doc=None):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc or SEQ1_DOC), encoding="utf-8")
    return str(path)


class TestRuntimeDependencies:
    def test_commands_load_no_scipy(self, tmp_path):
        # numpy is the only runtime dependency: a fresh interpreter runs the
        # commands that reach the Brent solve, the quadrature, the log-sum of
        # the law and the trapezoid CDF without importing scipy
        spec = write_spec(tmp_path)
        script = (
            "import sys\n"
            "import bclab, bclab.cli\n"
            "spec, out = sys.argv[1], sys.argv[2]\n"
            "for argv in (\n"
            "        ['phase-diagram', '--beta-min', '1.0', '--beta-max', '1.6',\n"
            "         '--points', '5', '-o', out + '/pd.csv'],\n"
            "        ['sequence-run', '--spec', spec, '--n', '50,100', '-o', out + '/sr.csv'],\n"
            "        ['mdp-check', '--spec', spec, '--alpha', '0.25', '--a', '2.4',\n"
            "         '--n', '100,200', '-o', out + '/mdp.csv'],\n"
            "        ['weak-limit', '--spec', spec, '--alpha', '0.8', '--n', '100',\n"
            "         '-o', out + '/wl.csv']):\n"
            "    assert bclab.cli.main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        src = os.path.dirname(os.path.dirname(bclab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", script, spec, str(tmp_path)], env=env,
                             check=True, capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    def test_scalar_commands_load_no_numpy(self, tmp_path):
        # import bclab and the scalar commands run only model, minimize and
        # phase, and load no numpy; every public name still resolves, and the
        # array layers run at a plain attribute read, as in a benchmark's
        # bclab.finite_size.mc_estimate
        script = (
            "import sys\n"
            "import bclab, bclab.cli\n"
            "out = sys.argv[1]\n"
            "for argv in (['magnetize', '--beta', '1.0', '--kappa', '1.5', '-o', out + '/m.json'],\n"
            "             ['phase-diagram', '--beta-min', '0.5', '--beta-max', '3.0',\n"
            "              '--points', '11', '-o', out + '/pd.csv'],\n"
            "             ['conjectures', '-o', out + '/c.json']):\n"
            "    assert bclab.cli.main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
            "est = bclab.finite_size.mc_estimate(20, bclab.ModelParams(1.0, 1.5), sweeps=20)\n"
            "assert 0.0 <= est.mean <= 1.0\n"
            "assert bclab.harness.run_thermo_asymptotics is bclab.run_thermo_asymptotics\n"
            "print(sorted(bclab.__all__))\n"
            "print(all(getattr(bclab, name) is not None for name in bclab.__all__))\n")
        src = os.path.dirname(os.path.dirname(bclab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        loaded, names, resolved = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)], env=env, check=True,
            capture_output=True, text=True).stdout.splitlines()
        assert loaded == "[]"
        assert names == str(sorted(PUBLIC_NAMES)) and resolved == "True"

    def test_concurrent_first_use_of_the_array_layers(self):
        # the first read of a layer runs it under one lock: threads that read
        # it meanwhile wait for the whole module, where a half-run one raised
        # AttributeError; each fresh interpreter loads the layers anew
        script = (
            "import threading\n"
            "from concurrent.futures import ThreadPoolExecutor\n"
            "import bclab\n"
            "p = bclab.ModelParams(1.0, 1.5)\n"
            "with ThreadPoolExecutor(4) as pool:\n"
            "    means = list(pool.map(lambda n: bclab.abs_moment(bclab.finite_size_law(n, p)),\n"
            "                          [100, 200, 300, 400]))\n"
            "assert all(0.7 < m < 0.8 for m in means), means\n"
            "barrier = threading.Barrier(8)\n"
            "read = []\n"
            "def first_use():\n"
            "    barrier.wait()\n"
            "    read.append((bclab.sequences.params_at, bclab.harness.weak_limit_distance))\n"
            "threads = [threading.Thread(target=first_use) for _ in range(8)]\n"
            "for t in threads:\n"
            "    t.start()\n"
            "for t in threads:\n"
            "    t.join(60)\n"
            "print(len(read))\n")
        src = os.path.dirname(os.path.dirname(bclab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        for _ in range(3):
            run = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, timeout=120)
            assert run.returncode == 0 and run.stdout == "8\n", run.stderr


# bclab.__all__: the eager layers' names and modules, then the lazy ones'; the
# kappa fit, the raw scaled free-energy table and coexistence_onset had no
# caller outside their own tests and are gone
PUBLIC_NAMES = """
    ModelParams cumulant cumulant_deriv free_energy free_energy_deriv model
    ScaledFreeEnergy magnetization minimize
    BETA_C CriticalConstants PhaseRegion classify critical_constants first_order_k
    second_order_k second_order_k_deriv verify_tricritical_conjectures phase
    N_MAX EnumerationLimitError McEstimate SpinLawExact abs_moment finite_size_law
    hs_lhs hs_rhs mc_estimate finite_size
    QuadratureError aitken_limit quadrature
    EvenPolynomial MinimumSet Regime ScalingExponents SequenceSpec SpecValidationError
    UnsupportedSequenceError XbarResult c4_coefficient check_hypothesis_iiia
    check_hypothesis_v g_tilde gl_polynomial limit_constant params_at spec_from_json
    spec_to_json validate weak_limit_polynomial xbar sequences
    AsymptoticsReport Estimator MdpReport ReportConstants ReportRow
    estimator_comparison mdp_rate_estimate
    run_finite_size_asymptotics run_thermo_asymptotics weak_limit_distance harness
""".split()


class TestMagnetize:
    def test_prints_json(self, capsys):
        assert main(["magnetize", "--beta", "1.0", "--kappa", "1.5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["m"] == pytest.approx(
            magnetization(ModelParams(1.0, 1.5)), abs=1e-15)
        assert doc["free_energy_at_m"] < 0

    def test_ordered_limit_far_above_the_curve(self, tmp_path):
        # exited 1 with a bare ZeroDivisionError from K = 1.8e16 K(beta) on
        out = tmp_path / "m.json"
        assert main(["magnetize", "--beta", "1", "--kappa", "1e300", "-o", str(out)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["m"] == 1.0 and doc["kappa"] == 1e300
        assert all(math.isfinite(v) for v in doc.values())

    def test_missing_field_names_it(self, capsys):
        assert main(["magnetize", "--beta", "1.0"]) == 2
        assert "kappa" in capsys.readouterr().err

    def test_overflowing_free_energy_named(self, tmp_path, capsys):
        # beta K = 2e308 overflows, so G(1) = -beta K is -inf; this exited 1 with
        # "Out of range float values are not JSON compliant: -inf"
        out = tmp_path / "m.json"
        assert main(["magnetize", "--beta", "2", "--kappa", "1e308", "-o", str(out)]) == 1
        assert capsys.readouterr().err == (
            "magnetize failed: OverflowError: free_energy at m = 1 overflows to -inf: "
            "beta K is beyond the largest float\n")
        assert not out.exists()


class TestPhaseDiagram:
    def test_csv_columns(self, tmp_path):
        out = tmp_path / "curves.csv"
        assert main(["phase-diagram", "--beta-min", "1.0", "--beta-max", "1.6",
                     "--points", "7", "-o", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "beta,K_second_order,K_first_order"
        assert len(lines) == 8
        for line in lines[1:]:
            beta, k2, k1 = line.split(",")
            if float(beta) <= math.log(4):
                assert k1 == ""
            else:
                assert float(k1) < float(k2)

    @pytest.mark.parametrize("beta_max", ["400", "inf"])
    def test_beta_range_checked_before_any_row(self, tmp_path, capsys, beta_max):
        # 400 wrote nothing after computing rows up to 350 and exited 1; inf
        # exited 1 with "second_order_k: ... got nan"
        out = tmp_path / "curves.csv"
        assert main(["phase-diagram", "--beta-min", "1.0", "--beta-max", beta_max,
                     "--points", "7", "-o", str(out)]) == 2
        assert "BETA_MAX = 350.0" in capsys.readouterr().err
        assert not out.exists()

    def test_one_point_rejected(self, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        assert main(["phase-diagram", "--beta-min", "1.0", "--beta-max", "1.6",
                     "--points", "1", "-o", str(out)]) == 2
        assert capsys.readouterr().err == "config error: points: must be >= 2\n"
        assert not out.exists()


class TestFiniteSizeCommand:
    def test_law_csv_normalized(self, tmp_path):
        out = tmp_path / "law.csv"
        assert main(["finite-size", "--beta", "1.0", "--kappa", "1.5",
                     "--n", "40", "-o", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "s,probability"
        probs = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(probs) == 81
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)


class TestMcCommand:
    def test_deterministic_json(self, capsys):
        args = ["mc", "--beta", "1.0", "--kappa", "1.2", "--n", "50",
                "--sweeps", "200", "--seed", "9"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert json.loads(first)["seed"] == 9
        # the keys are McEstimate's fields: renaming one changes the artifact
        assert set(json.loads(first)) == {"mean", "stderr", "sweeps", "seed"}

    @pytest.mark.parametrize("command, op", [
        (["mc", "--beta", "1", "--kappa", "1.5", "--n", "50", "--sweeps", "20"], "mc_estimate"),
        (["sequence-run", "--spec", None, "--n", "50", "--estimator", "mc"],
         "run_finite_size_asymptotics")],
        ids=["mc", "sequence-run"])
    def test_negative_seed_fails_named(self, tmp_path, capsys, command, op):
        # numpy raised "expected non-negative integer"; sequence-run named
        # mc_estimate and the row's seed ^ n, -51
        out = tmp_path / "x.csv"
        argv = [write_spec(tmp_path) if a is None else a for a in command]
        assert main([*argv, "--seed", "-1", "-o", str(out)]) == 1
        assert f"{op}: seed must be >= 0, got -1\n" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_burn_in_fails_named(self, tmp_path, capsys):
        out = tmp_path / "mc.json"
        assert main(["mc", "--beta", "1.0", "--kappa", "1.2", "--n", "50",
                     "--sweeps", "200", "--burn-in", "-3", "-o", str(out)]) == 1
        assert "mc_estimate: burn_in" in capsys.readouterr().err
        assert not out.exists()


class TestSequenceRun:
    def test_report_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert main(["sequence-run", "--spec", write_spec(tmp_path),
                     "--n", "50,100,200", "-o", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "n,beta_n,kappa_n,m_thermo,e_finite,scaled_m,scaled_e"
        assert len(lines) == 4
        sidecar = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        # the keys are ReportConstants' fields: renaming one changes the artifact
        assert set(sidecar) == {"alpha0", "theta", "regime", "x_bar", "y_bar", "z_bar",
                                "banner"}
        assert sidecar["regime"] == "below"
        assert sidecar["x_bar"] == pytest.approx(1.834237, abs=1e-5)

    def test_byte_identical_reruns(self, tmp_path):
        spec = write_spec(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            assert main(["sequence-run", "--spec", spec, "--n", "50,100,200",
                         "--seed", "3", "-o", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_threads_flag_starts_no_thread(self, tmp_path):
        # the rows hold the GIL, so --threads is accepted and the rows still
        # run serially: no pool module loads, no thread starts, and every
        # thread count writes the same bytes
        script = (
            "import sys, threading\n"
            "import bclab.cli\n"
            "spec, out = sys.argv[1], sys.argv[2]\n"
            "for estimator in ('exact', 'mc'):\n"
            "    for i, threads in enumerate(([], ['--threads', '2'], ['--threads', '1'])):\n"
            "        argv = ['sequence-run', '--spec', spec, '--n', '50,100,200',\n"
            "                '--estimator', estimator, '--sweeps', '40', *threads,\n"
            "                '-o', f'{out}/{estimator}-{i}.csv']\n"
            "        assert bclab.cli.main(argv) == 0, argv\n"
            "print('concurrent.futures' in sys.modules, threading.active_count())\n")
        src = os.path.dirname(os.path.dirname(bclab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", script, write_spec(tmp_path), str(tmp_path)],
                             env=env, check=True, capture_output=True, text=True).stdout
        assert out == "False 1\n"
        for estimator in ("exact", "mc"):
            for suffix in (".csv", ".json"):
                first, *rest = [(tmp_path / f"{estimator}-{i}{suffix}").read_bytes()
                                for i in range(3)]
                assert rest == [first, first]

    def test_alpha_flag_overrides_spec(self, tmp_path):
        out = tmp_path / "r.csv"
        assert main(["sequence-run", "--spec", write_spec(tmp_path),
                     "--alpha", "0.8", "--n", "50,100", "-o", str(out)]) == 0
        sidecar = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
        assert sidecar["regime"] == "above"

    def test_zero_denominator_alpha(self, tmp_path, capsys):
        # both used to say "Fraction(1, 0)"
        out = str(tmp_path / "r.csv")
        assert main(["sequence-run", "--spec", write_spec(tmp_path),
                     "--alpha", "1/0", "--n", "50", "-o", out]) == 2
        assert capsys.readouterr().err == "config error: alpha: zero denominator in '1/0'\n"
        spec = write_spec(tmp_path, dict(SEQ1_DOC, alpha="1/0"))
        assert main(["sequence-run", "--spec", spec, "--n", "50", "-o", out]) == 2
        assert capsys.readouterr().err == (
            "config error: spec: SequenceSpec: alpha: zero denominator in '1/0'\n")

    def test_rational_alpha_flag(self, tmp_path):
        # the flag parser used to refuse what spec files accept
        out = tmp_path / "r.csv"
        assert main(["sequence-run", "--spec", write_spec(tmp_path),
                     "--alpha", "1/3", "--n", "50,100", "-o", str(out)]) == 0
        sidecar = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
        assert sidecar["regime"] == "below"

    def test_decreasing_n_list_rejected(self, tmp_path, capsys):
        assert main(["sequence-run", "--spec", write_spec(tmp_path),
                     "--n", "200,100", "-o", str(tmp_path / "x.csv")]) == 2
        assert "n_list" in capsys.readouterr().err

    def test_invalid_spec_field_rejected(self, tmp_path, capsys):
        bad = dict(SEQ1_DOC, extra=1)
        assert main(["sequence-run", "--spec", write_spec(tmp_path, bad),
                     "--n", "50,100", "-o", str(tmp_path / "x.csv")]) == 2
        assert "extra" in capsys.readouterr().err

    def test_ill_typed_spec_field_rejected(self, tmp_path, capsys):
        # a string k used to reach the first coexistence check as a TypeError
        bad = dict(SEQ1_DOC, k="1")
        assert main(["sequence-run", "--spec", write_spec(tmp_path, bad),
                     "--n", "50,100", "-o", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == ("config error: spec: SequenceSpec: k: must be "
                                           "a finite int or float, got '1'\n")

    def test_deep_well_at_alpha0(self, tmp_path):
        # g(xbar) = -1051 at k = 25: exp(-g) overflowed (exit 1), and the
        # weak-limit target density was nan
        spec = write_spec(tmp_path, dict(SEQ1_DOC, alpha="1/2", k=25.0))
        g, _ = gl_polynomial(spec_from_json(dict(SEQ1_DOC, alpha="1/2", k=25.0)))
        assert float(g(xbar(g).value)) < -1000
        out = tmp_path / "r.csv"
        assert main(["sequence-run", "--spec", spec, "--n", "250,1000", "-o", str(out)]) == 0
        z_bar = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))["z_bar"]
        reference = exp_poly_abs_moment_mp(g.c2, g.c4, g.c6)
        assert reference == pytest.approx(9.169548405233663, rel=1e-14)
        assert z_bar == pytest.approx(reference, rel=1e-9)
        wl = tmp_path / "wl.csv"
        assert main(["weak-limit", "--spec", spec, "--n", "250,1000", "-o", str(wl)]) == 0
        rows = wl.read_text(encoding="utf-8").splitlines()[1:]
        assert len(rows) == 2
        assert all(0 <= float(row.split(",")[1]) <= 1 for row in rows)

    @pytest.mark.parametrize("command, extra", [
        ("sequence-run", []), ("mdp-check", ["--alpha", "0.25", "--a", "2.4"])])
    @pytest.mark.parametrize("output", ["spec.csv", "spec.json", "./sub/../spec.json"])
    def test_output_over_the_spec_rejected(self, tmp_path, capsys, monkeypatch,
                                           command, extra, output):
        # -o spec.csv wrote its sidecar spec.json over the spec and exited 0
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        before = Path(write_spec(tmp_path)).read_bytes()
        assert main([command, "--spec", "spec.json", *extra, "--n", "50,100",
                     "-o", output]) == 2
        assert capsys.readouterr().err.startswith("config error: output_path: ")
        assert (tmp_path / "spec.json").read_bytes() == before
        assert not (tmp_path / "spec.csv").exists()

    def test_zero_sweeps_fails_named(self, tmp_path, capsys):
        # 0 is a value, not a request for the 20000-sweep default
        out = tmp_path / "x.csv"
        assert main(["sequence-run", "--spec", write_spec(tmp_path), "--n", "50",
                     "--estimator", "mc", "--sweeps", "0", "-o", str(out)]) == 1
        assert "run_finite_size_asymptotics: sweeps must be >= 20, got 0" in capsys.readouterr().err
        assert not out.exists()


class TestConfigFile:
    def test_flags_win_over_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"beta": 2.0, "kappa": 1.5}), encoding="utf-8")
        assert main(["magnetize", "--config", str(cfg), "--beta", "1.0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["beta"] == 1.0
        assert doc["kappa"] == 1.5

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"beta": 1.0, "kapa": 9, "n_max": 10}),
                       encoding="utf-8")
        assert main(["magnetize", "--config", str(cfg), "--kappa", "1.5"]) == 2
        err = capsys.readouterr().err
        assert "kapa" in err and "n_max" in err

    @pytest.mark.parametrize("argv, doc", [
        (["magnetize", "--kappa", "1.5"], {"beta": "x"}),
        (["magnetize", "--kappa", "1.5"], {"beta": True}),   # used to run at beta = 1
        (["phase-diagram", "--beta-min", "1", "--beta-max", "2", "-o", "c.csv"],
         {"points": 3.5}),
        (["finite-size", "--beta", "1", "--kappa", "1.5", "-o", "l.csv"], {"n": 40.7}),
        (["sequence-run"], {"n_list": 100, "spec": SEQ1_DOC, "output_path": "r.csv"}),
        (["magnetize", "--beta", "1", "--kappa", "1.5"], {"output_path": 5}),
        (["sequence-run"], {"threads": 1.5, "spec": SEQ1_DOC, "n_list": [100],
                            "output_path": "r.csv"}),
    ], ids=["beta-text", "beta-bool", "points-fraction", "n-fraction", "n_list-number",
            "output_path-number", "threads-fraction"])
    def test_bad_values_name_the_field(self, tmp_path, capsys, monkeypatch, argv, doc):
        # these crashed with TypeError (exit 1) or ran on a coerced value
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(doc), encoding="utf-8")
        assert main(argv + ["--config", "cfg.json"]) == 2
        assert f"config error: {next(iter(doc))}: " in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_config_must_be_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([1.0, 1.5]), encoding="utf-8")
        assert main(["magnetize", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "config error: config: file must hold a JSON object\n"

    def test_config_spec_inline(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "spec": SEQ1_DOC, "n_list": [50, 100],
            "output_path": str(tmp_path / "r.csv")}), encoding="utf-8")
        assert main(["sequence-run", "--config", str(cfg)]) == 0
        assert (tmp_path / "r.csv").exists()


class TestWeakLimitCommand:
    def test_distances_csv(self, tmp_path):
        doc = dict(SEQ1_DOC, alpha=0.8)
        out = tmp_path / "wl.csv"
        assert main(["weak-limit", "--spec", write_spec(tmp_path, doc),
                     "--n", "100,200", "-o", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "n,distance"
        assert all(0 <= float(line.split(",")[1]) <= 1 for line in lines[1:])

    def test_past_the_exact_law(self, tmp_path):
        # the distance is computed from the smoothed density, so n has no bound
        out = tmp_path / "wl.csv"
        assert main(["weak-limit", "--spec", write_spec(tmp_path, dict(SEQ1_DOC, alpha=0.8)),
                     "--n", "100000000,10000000000", "-o", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
        assert [int(n) for n, _ in rows] == [10**8, 10**10]
        assert 0 < float(rows[1][1]) < float(rows[0][1]) < 1e-3

    def test_n_past_the_floats_named(self, tmp_path, capsys):
        # exited 1 with a bare "int too large to convert to float"
        spec = write_spec(tmp_path, dict(SEQ1_DOC, alpha=0.8))
        assert main(["weak-limit", "--spec", spec, "--n", str(10**400),
                     "-o", str(tmp_path / "wl.csv")]) == 1
        assert capsys.readouterr().err == (
            "weak-limit failed: ValueError: weak_limit_distance: n must be at most the "
            "largest float, got 10^400\n")
        assert not (tmp_path / "wl.csv").exists()

    def test_output_over_the_spec_rejected(self, tmp_path, capsys):
        # weak-limit writes no sidecar, so only -o itself can hit the spec
        spec = write_spec(tmp_path, dict(SEQ1_DOC, alpha=0.8))
        before = Path(spec).read_bytes()
        assert main(["weak-limit", "--spec", spec, "--n", "100", "-o", spec]) == 2
        assert capsys.readouterr().err.startswith("config error: output_path: ")
        assert Path(spec).read_bytes() == before
        assert main(["weak-limit", "--spec", spec, "--n", "100",
                     "-o", str(tmp_path / "spec.csv")]) == 0


class TestMdpCommand:
    def test_rows_and_sidecar(self, tmp_path):
        doc = dict(SEQ1_DOC, alpha=0.25)
        out = tmp_path / "mdp.csv"
        assert main(["mdp-check", "--spec", write_spec(tmp_path, doc),
                     "--a", "2.4", "--n", "500,1000", "-o", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "n,rate_est,saturated"
        sidecar = json.loads((tmp_path / "mdp.json").read_text(encoding="utf-8"))
        # the keys are MdpReport's fields but its rows
        assert set(sidecar) == {"target", "a", "u"}
        assert sidecar["target"] > 0

    def test_numeric_failure_names_operation(self, tmp_path, capsys):
        # threshold below xbar: the run fails nonzero and says which command
        doc = dict(SEQ1_DOC, alpha=0.25)
        code = main(["mdp-check", "--spec", write_spec(tmp_path, doc),
                     "--a", "0.5", "--n", "500,1000",
                     "-o", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "mdp-check failed" in err
        assert "xbar" in err

    @pytest.mark.parametrize("a", ["inf", "nan"])
    def test_nonfinite_threshold_rejected(self, tmp_path, capsys, a):
        # --a inf exited 0 with "a": Infinity, "target": NaN in its sidecar;
        # --a nan failed naming log_tail_mass
        out = tmp_path / "x.csv"
        assert main(["mdp-check", "--spec", write_spec(tmp_path, dict(SEQ1_DOC, alpha=0.25)),
                     "--a", a, "--n", "500", "-o", str(out)]) == 1
        assert "mdp_rate_estimate: threshold a must be finite" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "x.json").exists()


class TestJsonArtifacts:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_numbers_refused(self, tmp_path, capsys, value):
        # json.dumps wrote them as NaN and Infinity, which strict JSON readers reject
        out = tmp_path / "x.json"
        for path in (str(out), None):
            with pytest.raises(ValueError, match="JSON"):
                _emit_json({"target": value}, path)
        assert not out.exists() and capsys.readouterr().out == ""


class TestConjecturesCommand:
    def test_reports_estimates(self, capsys):
        assert main(["conjectures", "--h", "0.01,0.001"]) == 0
        doc = json.loads(capsys.readouterr().out)
        # the keys are the report's and ConjectureRow's fields
        assert set(doc) == {"rows", "k_prime_ref", "ell_c_ref"}
        assert all(set(row) == {"h", "k1_prime_est", "k1_second_est"} for row in doc["rows"])
        assert doc["k_prime_ref"] == pytest.approx(-0.0591658, abs=1e-6)
        assert len(doc["rows"]) == 2

    def test_absent_h_is_the_default_grid(self, capsys):
        assert main(["conjectures"]) == 0
        assert [row["h"] for row in json.loads(capsys.readouterr().out)["rows"]] == [1e-2, 1e-3]

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_h_grid_rejected(self, tmp_path, capsys, source):
        # both fell back to the default grid (1e-2, 1e-3) and exited 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"h_grid": []}), encoding="utf-8")
        argv = ["--h", ","] if source == "flag" else ["--config", str(cfg)]
        assert main(["conjectures", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == "config error: h_grid: must hold at least one h\n"
        assert captured.out == ""


    @pytest.mark.parametrize("h", ["nan", "inf", "200"])
    def test_h_past_beta_max_rejected(self, capsys, h):
        # each failed naming first_order_k, at beta_c + h or beta_c + 2h
        assert main(["conjectures", "--h", h]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "conjectures failed: ValueError: verify_tricritical_conjectures: h_grid entries "
            f"must be finite with beta_c + 2h <= BETA_MAX = 350.0, got [{float(h)}]\n")
        assert captured.out == ""


class TestExperimentConfigValidation:
    def test_unknown_command(self):
        with pytest.raises(ConfigError, match="command"):
            ExperimentConfig(command="explode").validate()

    @pytest.mark.parametrize("command, extra", [
        ("sequence-run", []), ("mdp-check", ["--alpha", "0.25", "--a", "2.4"]),
        ("weak-limit", ["--alpha", "0.8"])])
    def test_empty_n_list_rejected(self, tmp_path, capsys, command, extra):
        # mdp-check and weak-limit wrote a header-only CSV and exited 0;
        # sequence-run failed in the harness (exit 1)
        out = tmp_path / "x.csv"
        assert main([command, "--spec", write_spec(tmp_path), *extra, "--n", ",",
                     "-o", str(out)]) == 2
        assert capsys.readouterr().err == "config error: n_list: must hold at least one n\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, op, extra", [
        ("sequence-run", "run_finite_size_asymptotics", []),
        ("mdp-check", "mdp_rate_estimate", ["--a", "2.4"]),
        ("weak-limit", "weak_limit_distance", ["--alpha", "0.8"])])
    def test_invalid_spec_names_the_operation(self, tmp_path, capsys, command, op, extra):
        out = tmp_path / "x.csv"
        spec = write_spec(tmp_path, dict(SEQ1_DOC, b=1, k=0.0))
        assert main([command, "--spec", spec, *extra, "--n", "100", "-o", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"{command} failed: SpecValidationError: {op}: violated: k nonzero (margin 0)\n")
        assert not out.exists()

    def test_unknown_estimator_rejected(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["sequence-run", "--spec", write_spec(tmp_path), "--n", "50",
                     "--estimator", "fast", "-o", str(out)]) == 2
        assert capsys.readouterr().err == "config error: estimator: must be 'exact' or 'mc'\n"
        assert not out.exists()

    def test_extraneous_field(self):
        cfg = ExperimentConfig(command="magnetize", beta=1.0, kappa=1.0, a=2.0)
        with pytest.raises(ConfigError, match="a:"):
            cfg.validate()


def _parse_exit(capsys, parse, argv):
    """(exit code, stdout, stderr) of an argparse exit from parse(argv)."""
    with pytest.raises(SystemExit) as exit_info:
        parse(argv)
    captured = capsys.readouterr()
    return exit_info.value.code, captured.out, captured.err


class TestParser:
    """main builds only the subparser its first argument names; what it prints
    must be what the full parser prints."""

    @pytest.mark.parametrize("command", list(_COMMANDS))
    @pytest.mark.parametrize("flags", [["--help"], ["--bogus"], ["--config"]],
                             ids=["help", "unknown-flag", "missing-value"])
    def test_command_text_is_the_full_parsers(self, capsys, command, flags):
        # --bogus is reported by the top-level parser with its usage line,
        # --config without a value by the command's own subparser
        argv = [command, *flags]
        got = _parse_exit(capsys, main, argv)
        assert got == _parse_exit(capsys, lambda a: build_parser().parse_args(a), argv)
        assert {"--help": got[1].startswith(f"usage: bclab {command} [-h]"),
                "--bogus": got[2].endswith("bclab: error: unrecognized arguments: --bogus\n"),
                "--config": got[2].endswith(f"bclab {command}: error: argument --config: "
                                            "expected one argument\n")}[flags[0]]

    @pytest.mark.parametrize("argv", [["--help"], ["nosuch"], []], ids=["help", "unknown", "none"])
    def test_top_level_text_is_the_full_parsers(self, capsys, argv):
        got = _parse_exit(capsys, main, argv)
        assert got == _parse_exit(capsys, lambda a: build_parser().parse_args(a), argv)
        if argv == ["--help"]:
            assert all(f"    {name} " in got[1] for name in _COMMANDS)
        elif argv == ["nosuch"]:
            assert got[2].endswith(
                "bclab: error: argument command: invalid choice: 'nosuch' (choose from "
                + ", ".join(f"'{name}'" for name in _COMMANDS) + ")\n")
        else:
            assert got[2].endswith("bclab: error: the following arguments are required: command\n")

    def test_one_command_parser(self):
        parser = build_parser("magnetize")
        assert parser.parse_args(["magnetize", "--beta", "1"]).beta == "1"
        with pytest.raises(SystemExit):
            parser.parse_args(["mc", "--n", "5"])
