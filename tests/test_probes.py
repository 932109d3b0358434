import importlib.util
import json
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "probes", Path(__file__).resolve().parent.parent / "tools" / "probes.py")
probes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(probes)

HEADER = "experiment,param_json,input,estimate,std_error,oracle,deviation,sigma_multiple,verdict\n"


def _csv(path, rows):
    path.write_text(HEADER + "".join(f'x,"{{}}","{label}",{est},{se},,0,0,{verdict}\n'
                                     for label, est, se, verdict in rows), encoding="utf-8")
    return path


def _json(path, rows, summary):
    rows = [{"input": label, "estimate": est, "std_error": se, "oracle": 2.0 * est, "verdict": verdict}
            for label, est, se, verdict in rows]
    path.write_text(json.dumps({"rows": rows, "summary": summary}), encoding="utf-8")
    return path


def test_compare_matches_rows_by_label_and_reports_the_largest_move(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    old = [("pair=0", 2.0, 0.5, "PASS"), ("pair=1", 4.0, 0.0, "PASS"), ("pair=1", 1.0, 1.0, "PASS")]
    new = [("pair=1", 4.0, 0.0, "PASS"), ("pair=0", 2.0 * (1 + 2**-51), 0.5, "PASS"),
           ("pair=1", 1.0, 1.5, "FAIL")]
    line = probes.compare(_csv(tmp_path / "a" / "r.csv", old), _csv(tmp_path / "b" / "r.csv", new))
    assert line == ("r.csv: estimate 4.4e-16, std_error 0.5, oracle 0 relative; "
                    "estimate 1.8e-15 sigma; verdicts CHANGED; summary same")
    line = probes.compare(_json(tmp_path / "a" / "r.json", old, {"k": "PASS"}),
                          _json(tmp_path / "b" / "r.json", old, {"k": "FAIL"}))
    assert line == ("r.json: estimate 0, std_error 0, oracle 0 relative; estimate 0 sigma; "
                    "verdicts same; summary CHANGED")
    # with no positive old std_error, the move has no scale in sigmas
    line = probes.compare(_csv(tmp_path / "a" / "e.csv", old[1:2]),
                          _csv(tmp_path / "b" / "e.csv", [("pair=1", 5.0, 0.0, "PASS")]))
    assert line == ("e.csv: estimate 0.25, std_error 0, oracle 0 relative; estimate n/a sigma; "
                    "verdicts same; summary same")
    line = probes.compare(tmp_path / "a" / "r.json", _json(tmp_path / "b" / "s.json", old[:2], {}))
    assert line == "s.json: rows differ (3 -> 2, by input label)"


def test_against_exits_one_when_a_verdict_summary_or_row_changes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # main works in --out; undo it afterwards
    argv = "sharpness --method closed --factors 1 --p 2 --seed 5".split()
    monkeypatch.setattr(probes, "probes", lambda: [(f"r.{fmt}", argv + ["--format", fmt])
                                                   for fmt in ("csv", "json")])
    assert probes.main(["--out", str(tmp_path / "old")]) == 0
    assert probes.main(["--out", str(tmp_path / "new"), "--against", str(tmp_path / "old")]) == 0
    assert "0 of 2 reports differ" in capsys.readouterr().out

    report = json.loads((tmp_path / "old" / "r.json").read_text())
    key = next(iter(report["summary"]))
    for doctor, want in (
        (lambda r: r["rows"][0].update(estimate=r["rows"][0]["estimate"] * (1 + 2**-50)),
         "verdicts same; summary same"),
        (lambda r: r["rows"][0].update(verdict="FAIL"), "verdicts CHANGED"),
        (lambda r: r["summary"].update({key: "FAIL"}), "summary CHANGED"),
        (lambda r: r["rows"].pop(), "rows differ"),
    ):
        changed = json.loads(json.dumps(report))
        doctor(changed)
        (tmp_path / "old" / "r.json").write_text(json.dumps(changed))
        code = probes.main(["--out", str(tmp_path / "new"), "--against", str(tmp_path / "old")])
        out, err = capsys.readouterr()
        line = out.splitlines()[-1]
        assert line.startswith("r.json: ") and want in line
        if want.endswith("summary same"):
            assert code == 0 and err == ""
        else:
            assert code == 1
            assert err.splitlines() == ["1 reports changed their rows, a verdict or the summary:", line]
