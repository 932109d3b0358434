import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import hardylab
from hardylab import cli
from hardylab.lab import ExperimentReport, ReportRow
from hardylab.measure import IntegrationError


def run(argv):
    return cli.run(argv)


@pytest.mark.parametrize("module", ["hardylab"] + [
    f"hardylab.{info.name}" for info in pkgutil.iter_modules(hardylab.__path__)
])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


class TestExitCodes:
    def test_pass_run_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run(["sharpness", "--p", "2", "--factors", "1",
                    "--eps", "0.2,0.1,0.05", "--method", "closed",
                    "--format", "json", "--output", str(out)])
        assert code == 0

    def test_usage_error_exits_one(self, capsys):
        assert run(["sharpness", "--p", "1"]) == 1
        assert run(["sharpness", "--factors", ""]) == 1
        assert run(["sharpness", "--eps", "0.5,2.0"]) == 1
        assert run(["fuzz", "--samples", "10"]) == 1
        assert run(["fuzz", "--trials", "0", "--samples", "1000"]) == 1
        assert run(["cesaro-duality", "--pairs", "0", "--samples", "1000"]) == 1
        assert run(["sharpness", "--eps", "0.1"]) == 1
        assert run(["sharpness", "--eps", "0.1,0.1"]) == 1
        assert run(["volume", "--n", "30"]) == 1
        assert run(["volume", "--n", "200"]) == 1
        assert run(["cesaro-duality", "--factors", "1,1,1", "--weight", "monomial:4,4,4"]) == 1
        assert run(["nonsense"]) == 1
        assert run([]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err

    def test_fail_run_exits_two(self, tmp_path):
        # a grid far from 0 makes the linear extrapolation miss the sharp
        # constant by more than 2 percent, deterministically
        out = tmp_path / "r.json"
        code = run(["sharpness", "--p", "2", "--factors", "1",
                    "--eps", "0.9,0.85,0.8", "--method", "closed",
                    "--format", "json", "--output", str(out)])
        assert code == 2
        rep = json.loads(out.read_text())
        assert any(v == "FAIL" for v in rep["summary"].values())

    def test_quadrature_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        # `sharpness --method radial --p 1.0001 --eps 0.0003,0.0002` fails
        # this way after about 12 s, in `measure._power_closeout`
        def fail(*args, **kwargs):
            raise IntegrationError("endpoint behaviour ~ s^-0.9997 is not integrable")

        monkeypatch.setattr(cli, "sharpness_sweep", fail)
        out = tmp_path / "r.json"
        assert run(["sharpness", "--method", "radial", "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert "quadrature error: endpoint behaviour" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_nested_mc_refuses_fractional_p(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run(["sharpness", "--method", "mc", "--p", "1.5", "--output", str(out)]) == 1
        assert "closed or radial" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cmd, weight", [
        ("weighted", "monomial:nan"),
        ("weighted", "monomial:inf"),
        ("cesaro-duality", "monomial:nan"),
        ("cesaro-duality", {"t": [0.0, 0.5, 1.0], "values": [0.0, math.nan, 1.0]}),
        ("cesaro-duality", {"t": [0.0, math.inf, 1.0], "values": [0.0, 0.5, 1.0]}),
    ])
    def test_non_finite_weights_are_refused(self, tmp_path, capsys, cmd, weight):
        if isinstance(weight, dict):
            path = tmp_path / "w.json"
            path.write_text(json.dumps({"factors": [weight]}))
            weight = f"table:{path}"
        out = tmp_path / "r.json"
        assert run([cmd, "--weight", weight, "--output", str(out)]) == 1
        assert weight in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("factors", [
        [{"t": [0, 1], "values": [0, 0]}],
        [{"t": [0, 1], "values": [0, 1]}, {"t": [0, 1], "values": [0, 0]}],
    ])
    def test_zero_table_weight_is_refused(self, tmp_path, capsys, factors):
        # both sides of every pairing would be 0, and every row would pass
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"factors": factors}))
        out = tmp_path / "r.json"
        argv = ["cesaro-duality", "--weight", f"table:{path}", "--pairs", "2",
                "--samples", "1000", "--factors", ",".join(["1"] * len(factors))]
        assert run(argv + ["--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert "is zero on [0, 1]" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("spec, message", [
        # the compact estimator scored it and always refused its unbounded support
        ("power-outside:2.1", "unknown test-function spec 'power-outside:2.1'"),
        ("power-inside:nan", "exponents must be finite"),
        ("power-inside:inf", "exponents must be finite"),
    ])
    def test_bad_function_specs_are_refused(self, tmp_path, capsys, spec, message):
        out = tmp_path / "r.json"
        argv = ["fuzz", "--trials", "1", "--samples", "2000", "--function", spec]
        assert run(argv + ["--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert "bad --function" in err and message in err and "Traceback" not in err
        assert not out.exists()

    def test_zero_bump_mixture_is_refused(self, tmp_path, capsys):
        # every coefficient 0: no bump can be drawn in proportion to |c|, and
        # the run stops on the zero norm instead of dividing by it
        bumps = tmp_path / "b.json"
        bumps.write_text(json.dumps([{"centers": [[0.1, -0.2, 0.05]], "radii": [0.7],
                                      "coefficient": 0.0}] * 2))
        out = tmp_path / "r.json"
        argv = ["fuzz", "--trials", "1", "--samples", "4000", "--function", f"bumps:{bumps}"]
        assert run(argv + ["--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert "zero norm: " in err and "Traceback" not in err
        assert not out.exists()

    def test_signed_bump_mixture_is_scored(self, tmp_path):
        bumps = tmp_path / "b.json"
        bumps.write_text(json.dumps([
            {"centers": [[0.1, -0.2, 0.05]], "radii": [0.7], "coefficient": -1.0},
            {"centers": [[-0.3, 0.2, 0.1]], "radii": [0.5], "coefficient": 0.5},
        ]))
        out = tmp_path / "r.json"
        assert run(["fuzz", "--trials", "1", "--samples", "4000", "--function", f"bumps:{bumps}",
                    "--format", "json", "--output", str(out)]) == 0
        given = [r for r in json.loads(out.read_text())["rows"]
                 if r["input"].startswith("given function")]
        assert len(given) == 1 and given[0]["verdict"] == "PASS"
        assert 0.0 < given[0]["estimate"] < 2.0 and given[0]["std_error"] > 0.0

    def test_weighted_sweep_refuses_a_table_weight(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"factors": [{"t": [0, 1], "values": [0, 1]}]}))
        out = tmp_path / "r.json"
        assert run(["weighted", "--weight", f"table:{path}", "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert "monomial weights" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("kind, content, message", [
        ("bumps", {"centers": 1}, "must hold a JSON list of bumps"),
        ("bumps", [{"centers": [[0, 0, 0]], "coefficient": 1.0}], "[0]['radii'] is missing"),
        # two radii at one factor: zip used to drop the second, and C5 passed
        ("bumps", [{"centers": [[0, 0, 0]], "radii": [0.5, 0.7], "coefficient": 1.0}],
         "[0]['radii'] must hold one positive radius per factor"),
        ("bumps", [{"centers": [[0, 0, 0]], "radii": [0.5], "coefficient": math.nan}],
         "[0]['coefficient'] must be a finite number"),
        ("table", [1, 2], "['factors'] must list one table per factor"),
        ("table", {"factors": [{"t": [0, 1]}]}, "['factors'][0]['values'] is missing"),
        ("table", {"factors": [{"t": [0, 1], "values": [0, 1, 1]}]}, "one value >= 0 per knot"),
        ("table", {"factors": [{"t": [1, 0], "values": [1, 0]}]}, "'t' must not decrease"),
    ])
    def test_malformed_input_files_are_refused(self, tmp_path, capsys, kind, content, message):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(content))
        argv = {"bumps": ["fuzz", "--trials", "1", "--function", f"bumps:{path}"],
                "table": ["cesaro-duality", "--pairs", "1", "--weight", f"table:{path}"]}[kind]
        out = tmp_path / "r.json"
        assert run(argv + ["--samples", "1000", "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and str(path) in err and message in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["weighted", "--p", "1000"],
        ["fuzz", "--p", "1000", "--trials", "1", "--samples", "1000"],
        ["sharpness", "--p", "1e17"],  # p/(p-1) rounds to 1
        # C6's p-th power sums underflowed to 0 and the contraction read 0 <= ||f||
        ["radialize-check", "--trials", "3", "--samples", "1000", "--inner-samples", "4", "--p", "300"],
        ["radialize-check", "--factors", "1,1", "--trials", "1", "--p", "150"],
        ["radialize-check", "--p", "1e6", "--trials", "1", "--inner-samples", "1"],
    ])
    def test_large_p_is_refused(self, tmp_path, capsys, argv):
        out = tmp_path / "r.json"
        assert run(argv + ["--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "Traceback" not in err
        assert f"p={float(argv[argv.index('--p') + 1]):g}" in err
        assert not out.exists()

    def test_large_p_weighted_quotient_is_refused(self, tmp_path, capsys):
        # (a + 1 - beta)^(p + 1) underflowed to 0 and the closed quotient
        # divided by it
        out = tmp_path / "r.json"
        assert run(["weighted", "--weight", "one", "--p", "1e6", "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert "usage error: p=1e+06 is too large" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        # the compact estimator's prefactor omega / |B(0, 1)|^p overflowed
        (["fuzz", "--p", "1e6", "--trials", "1", "--samples", "1000"],
         "p=1e+06 is too large: the prefactor"),
        # the closed weighted quotient's (a + 1 - beta)^(p + 1) overflowed
        (["weighted", "--weight", "monomial:1e308", "--p", "2"],
         "weight exponent a=1e+308 is too large: (a + 1 - beta)^(p + 1) overflows at p=2"),
        # the compact estimator's node weights r^(Q(1-p)-1) overflowed, and
        # 0 * inf wrote NaN estimates (JSON refused them, CSV did not)
        (["fuzz", "--p", "30", "--trials", "2", "--samples", "2000", "--seed", "1"],
         "p=30 is too large: the node weights r^(Q(1-p)-1) leave the float range"),
        (["fuzz", "--p", "30", "--trials", "2", "--samples", "2000", "--seed", "1", "--format", "csv"],
         "p=30 is too large: the node weights r^(Q(1-p)-1) leave the float range"),
    ])
    def test_overflows_name_the_given_value(self, tmp_path, capsys, argv, message):
        # the first two said only "(34, 'Numerical result out of range')"
        out = tmp_path / "r.json"
        assert run(argv + ["--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"usage error: {message}" in err and "Traceback" not in err
        assert not out.exists()

    def test_unbounded_pairing_names_the_given_p(self, tmp_path, capsys):
        # the refusal named the conjugate exponent p/(p-1), as p=1e+07
        out = tmp_path / "r.json"
        argv = ["cesaro-duality", "--weight", "monomial:0", "--p", "1.0000001"]
        assert run(argv + ["--output", str(out)]) == 1
        assert "diverges at p=1.0000001" in capsys.readouterr().err
        assert not out.exists()

    def test_large_p_pairing_runs(self, tmp_path, capsys):
        # the adjoint family quotients divide by D^p, which underflowed to 0
        out = tmp_path / "r.json"
        argv = ["cesaro-duality", "--p", "1000", "--pairs", "1", "--samples", "1000"]
        assert run(argv + ["--output", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        rep = json.loads(out.read_text())
        assert rep["summary"]["C8:duality"] == "PASS"

    def test_large_n_pairing_errors_do_not_underflow(self, tmp_path):
        # the pairings are of order 1e-160 at n = 100, and their squared
        # deviations used to underflow: a zero error, and a FAIL at 3e15 sigma
        out = tmp_path / "r.json"
        argv = ["cesaro-duality", "--weight", "monomial:120", "--p", "2", "--factors", "100",
                "--pairs", "2", "--samples", "2000", "--seed", "1"]
        assert run(argv + ["--output", str(out)]) == 0
        mc = [row for row in json.loads(out.read_text())["rows"]
              if "(mc)" in row["input"] or "pairing match" in row["input"]]
        assert len(mc) == 4
        assert [row["input"] for row in mc if row["estimate"] != 0.0 and row["std_error"] == 0.0] == []

    @pytest.mark.parametrize("argv, flag", [
        (["fuzz", "--trials", "1", "--samples", "1000", "--workers", "0"], "--workers"),
        (["radialize-check", "--trials", "1", "--samples", "1000", "--inner-samples", "0"],
         "--inner-samples"),
        (["cesaro-duality", "--pairs", "1", "--samples", "1000", "--workers", "0"], "--workers"),
    ])
    def test_counts_must_be_positive(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "r.json"
        assert run(argv + ["--output", str(out)]) == 1
        assert f"{flag} must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_plot_needs_output_path(self):
        assert run(["sharpness", "--method", "closed", "--plot"]) == 1

    def test_box_rejection_floor_keeps_small_geometry_runs(self, tmp_path):
        # about 48 expected hits at n = 3, above the floor of 25
        assert run(["geometry-check", "--samples", "1000",
                    "--output", str(tmp_path / "g.json")]) == 0

    def test_module_entry_point(self):
        env = {**os.environ, "PYTHONPATH": str(Path(hardylab.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "hardylab.cli", "sharpness", "--method", "closed",
             "--format", "csv"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0].startswith("experiment,param_json")
        assert len(lines) > 1 and all(line.startswith("sharpness,") for line in lines[1:])


class TestArtifacts:
    def test_csv_schema_and_round_trip(self, tmp_path):
        out = tmp_path / "r.csv"
        code = run(["volume", "--n", "1", "--samples", "50000", "--seed", "7",
                    "--format", "csv", "--output", str(out)])
        assert code == 0
        raw = out.read_bytes().decode()
        assert "\r" not in raw
        lines = raw.strip().split("\n")
        assert lines[0] == ("experiment,param_json,input,estimate,std_error,"
                            "oracle,deviation,sigma_multiple,verdict")
        # 17 significant digits round-trip the estimate exactly
        import csv as csvmod

        rows = list(csvmod.reader(lines[1:]))
        est = float(rows[0][3])
        from hardylab.lab import volume_check

        rep = volume_check(1, samples=50_000, seed=7)
        assert est == rep.rows[0].estimate

    def test_json_round_trip_bit_exact(self, tmp_path):
        out = tmp_path / "r.json"
        run(["volume", "--n", "2", "--samples", "50000", "--seed", "3",
             "--format", "json", "--output", str(out)])
        rep = json.loads(out.read_text())
        from hardylab.lab import volume_check

        direct = volume_check(2, samples=50_000, seed=3)
        for row, drow in zip(rep["rows"], direct.rows):
            assert row["estimate"] == drow.estimate
            assert row["std_error"] == drow.std_error
        assert rep["wall_time_ms"] is None

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["fuzz", "--trials", "3", "--samples", "5000", "--seed", "11",
                "--format", "json"]
        assert run(args + ["--output", str(a)]) == 0
        assert run(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_byte_identical_across_workers(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["sharpness", "--method", "mc", "--samples", "20000",
                "--eps", "0.2,0.1", "--seed", "4", "--format", "csv"]
        assert run(base + ["--workers", "1", "--output", str(a)]) == 0
        assert run(base + ["--workers", "3", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_fuzz_is_byte_identical_across_workers(self, tmp_path):
        # C10 for C5: --workers must not change the bytes
        base = ["fuzz", "--factors", "1,1", "--trials", "2", "--samples", "8000",
                "--seed", "6", "--format", "json"]
        reports = []
        for workers in ("1", "2", "3"):
            out = tmp_path / f"w{workers}.json"
            assert run(base + ["--workers", workers, "--output", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1] == reports[2]

    @pytest.mark.parametrize("factors,weight,pairs,samples", [
        ("1", "monomial:4", "2", "5000"), ("1,1", "monomial:4,4", "1", "2500"),
    ])
    def test_cesaro_duality_is_byte_identical_across_workers(self, tmp_path, factors, weight,
                                                             pairs, samples):
        # C10 for C8: --workers must not change the bytes
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["cesaro-duality", "--factors", factors, "--weight", weight, "--pairs", pairs,
                "--samples", samples, "--seed", "7", "--format", "json"]
        assert run(base + ["--workers", "1", "--output", str(a)]) == 0
        assert run(base + ["--workers", "2", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_cesaro_duality_keeps_its_bytes_after_larger_grids(self, tmp_path):
        # the pairings keep their grid buffers from call to call: the last
        # m = 1 run takes the front of buffers grown for m = 2
        reports = []
        for factors, weight, pairs, samples in (("1", "monomial:4", "2", "5000"),
                                                ("1,1", "monomial:4,4", "1", "2500"),
                                                ("1", "monomial:4", "2", "5000")):
            out = tmp_path / f"run{len(reports)}.json"
            assert run(["cesaro-duality", "--factors", factors, "--weight", weight,
                        "--pairs", pairs, "--samples", samples, "--seed", "7", "--workers", "3",
                        "--format", "json", "--output", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[2]

    def test_radialize_check_runs_the_samples_it_is_given(self, tmp_path):
        out = tmp_path / "r.json"
        base = ["radialize-check", "--trials", "1", "--seed", "3", "--output", str(out)]
        assert run(base) == 0
        params = json.loads(out.read_text())["params"]
        assert (params["samples"], params["inner_samples"]) == (6250, 64)
        assert run(base + ["--samples", "16000", "--inner-samples", "32"]) == 0
        params = json.loads(out.read_text())["params"]
        assert (params["samples"], params["inner_samples"]) == (16_000, 32)

    def test_non_finite_values_are_refused(self):
        rep = ExperimentReport("x", {}, [ReportRow("r", -math.inf)], {}, 0)
        with pytest.raises(ValueError):
            cli.report_to_json(rep)
        rep = ExperimentReport("x", {"bound": math.nan}, [], {}, 0)
        with pytest.raises(ValueError):
            cli.report_to_csv(rep)

    def test_empty_rows_is_valid_csv(self):
        rep = ExperimentReport("empty", {}, [], {}, 0)
        text = cli.report_to_csv(rep)
        assert text.splitlines() == [
            "experiment,param_json,input,estimate,std_error,oracle,deviation,sigma_multiple,verdict"
        ]

    def test_svg_contract(self, tmp_path):
        out = tmp_path / "s.json"
        code = run(["sharpness", "--p", "2", "--factors", "1", "--method", "closed",
                    "--format", "json", "--output", str(out), "--plot"])
        assert code == 0
        svg = (tmp_path / "s.svg").read_text()
        assert 'viewBox="0 0 800 500"' in svg
        assert svg.count("<line ") == 1
        assert svg.count("<polyline ") == 1
        # the rule sits at the sharp constant's y position
        rep = json.loads(out.read_text())
        assert rep["params"]["plot_rule"] == 2.0


class TestConfigPrecedence:
    def test_config_file_used_and_flags_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2, "samples": 40_000, "seed": 9}))
        out = tmp_path / "r.json"
        code = run(["volume", "--config", str(cfg), "--format", "json",
                    "--output", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["params"]["n"] == 2 and rep["params"]["samples"] == 40_000
        # flag wins over config
        code = run(["volume", "--config", str(cfg), "--n", "1", "--format", "json",
                    "--output", str(out)])
        rep = json.loads(out.read_text())
        assert rep["params"]["n"] == 1

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HARDYLAB_SEED", "321")
        out = tmp_path / "r.json"
        run(["volume", "--n", "1", "--samples", "20000", "--format", "json",
             "--output", str(out)])
        rep = json.loads(out.read_text())
        assert rep["seed"] == 321

    @pytest.mark.parametrize("config", [{"samples": "abc"}, {"format": "xml"}, {"sampels": 5}])
    def test_config_values_are_checked_like_flags(self, tmp_path, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run(["volume", "--config", str(cfg), "--output", str(tmp_path / "r.json")]) == 1

    @pytest.mark.parametrize("config, message", [
        ({"sam": 20_000, "n": 1}, "unrecognized arguments: --sam=20000"),
        ({"config": "other.json", "n": 1}, "cannot name another config file"),
    ])
    def test_config_keys_name_a_flag_exactly(self, tmp_path, capsys, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run(["volume", "--config", str(cfg), "--output", str(tmp_path / "r.json")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_command_line_flags_may_still_be_abbreviated(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["volume", "--sam", "20000", "--n", "1", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["params"]["samples"] == 20_000

    def test_config_and_flags_write_the_same_bytes(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 2, "method": "closed", "plot": False, "function": None}))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["sharpness", "--config", str(cfg), "--output", str(a)]) == 0
        assert run(["sharpness", "--p", "2", "--method", "closed", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_seed_zero_is_kept(self, tmp_path, monkeypatch):
        # 0 == False: a config value of 0 must still become a flag
        monkeypatch.setenv("HARDYLAB_SEED", "321")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 0, "n": 1, "samples": 20_000}))
        out = tmp_path / "r.json"
        assert run(["volume", "--config", str(cfg), "--output", str(out)]) == 0
        assert json.loads(out.read_text())["seed"] == 0

    def test_bad_config_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert run(["volume", "--config", str(bad)]) == 1

    def test_stdout_output(self, capsys):
        code = run(["volume", "--n", "1", "--samples", "20000", "--seed", "1",
                    "--format", "csv"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("experiment,param_json")

    def test_function_flag_in_fuzz(self, tmp_path):
        out = tmp_path / "f.json"
        code = run(["fuzz", "--trials", "2", "--samples", "5000", "--seed", "5",
                    "--function", "power-inside:-1.9", "--format", "json",
                    "--output", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        given = [r for r in rep["rows"] if r["input"].startswith("given function")]
        assert given and given[0]["estimate"] == pytest.approx(1.9518001458970664)
        assert run(["fuzz", "--function", "wavelet:1", "--samples", "5000"]) == 1


class TestFlagTable:
    """Each subcommand takes exactly the flags it reads."""

    # subcommand -> its flags besides --seed, --format, --output and --config
    ROWS = {
        "geometry-check": {"samples"},
        "sharpness": {"p", "factors", "eps", "method", "samples", "inner-samples", "workers",
                      "plot"},
        "fuzz": {"p", "factors", "function", "samples", "trials", "workers"},
        "radialize-check": {"p", "factors", "samples", "inner-samples", "trials"},
        "weighted": {"p", "factors", "weight", "plot"},
        "cesaro-duality": {"p", "factors", "weight", "samples", "pairs", "workers"},
        "volume": {"n", "samples"},
    }
    # subcommand -> (small base arguments, {flag: a value that differs from the base's})
    CASES = {
        "geometry-check": (["--samples", "1000"], {"samples": "2000"}),
        "sharpness": (
            ["--method", "mc", "--eps", "0.2,0.1", "--samples", "2000", "--inner-samples", "16"],
            {"p": "3", "factors": "2", "eps": "0.2,0.15", "method": "closed",
             "samples": "3000", "inner-samples": "32"},
        ),
        "fuzz": (["--trials", "1", "--samples", "2000"],
                 {"p": "3", "factors": "2", "function": "power-inside:-1.9",
                  "samples": "3000", "trials": "2"}),
        "radialize-check": (["--trials", "1", "--samples", "2000", "--inner-samples", "16"],
                            {"p": "3", "factors": "2", "samples": "3000",
                             "inner-samples": "32", "trials": "2"}),
        "weighted": ([], {"p": "3", "factors": "2", "weight": "monomial:2"}),
        "cesaro-duality": (["--pairs", "1", "--samples", "1000"],
                           {"p": "3", "factors": "2", "weight": "monomial:4",
                            "samples": "2000", "pairs": "2"}),
        "volume": (["--samples", "20000"], {"n": "2", "samples": "30000"}),
    }

    @pytest.mark.parametrize("cmd", list(ROWS))
    def test_every_flag_changes_the_report(self, tmp_path, monkeypatch, cmd):
        monkeypatch.delenv("HARDYLAB_SEED", raising=False)
        base, variants = self.CASES[cmd]
        # --workers must not change the bytes, and --plot writes a second file
        assert set(variants) == self.ROWS[cmd] - {"workers", "plot"}
        out = tmp_path / "base.json"
        assert run([cmd, *base, "--output", str(out)]) in (0, 2)
        reference = out.read_bytes()
        for flag, value in variants.items():
            out = tmp_path / f"{flag}.json"
            assert run([cmd, *base, f"--{flag}", value, "--output", str(out)]) in (0, 2), flag
            assert out.read_bytes() != reference, flag

    @pytest.mark.parametrize("cmd", list(ROWS))
    def test_other_flags_are_refused(self, tmp_path, capsys, cmd):
        out = tmp_path / "r.json"
        cfg = tmp_path / "cfg.json"
        foreign = set().union(*self.ROWS.values()) - self.ROWS[cmd]
        for flag in sorted(foreign):
            cfg.write_text(json.dumps({flag.replace("-", "_"): 1}))
            for argv in ([f"--{flag}=1"], ["--config", str(cfg)]):
                assert run([cmd, *argv, "--output", str(out)]) == 1, (flag, argv)
                assert f"unrecognized arguments: --{flag}=1" in capsys.readouterr().err
                assert not list(tmp_path.glob("r.*"))
