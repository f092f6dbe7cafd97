import copy
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phaseret as pr
from phaseret.cli import main
from phaseret.serialize import (
    frame_from_dict,
    frame_to_csv,
    frame_to_dict,
    load_json,
    pair_to_dict,
    save_json,
)

AXES = pr.Frame(np.eye(2), pr.Field.REAL)
MERCEDES = pr.Frame(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]), pr.Field.REAL)


def write_frame(tmp_path, f, name="frame.json"):
    path = str(tmp_path / name)
    save_json(path, frame_to_dict(f))
    return path


# ---------------------------------------------------------------------------
# exact checks

def test_check_cp_holds(tmp_path, capsys):
    assert main(["check-cp", write_frame(tmp_path, MERCEDES)]) == 0
    assert "holds" in capsys.readouterr().out


def test_check_cp_fails_prints_one_based_partition(tmp_path, capsys):
    assert main(["check-cp", write_frame(tmp_path, AXES)]) == 1
    out = capsys.readouterr().out
    assert "I = {1}" in out and "I^c = {2}" in out


def test_check_cp_reads_csv(tmp_path):
    path = str(tmp_path / "f.csv")
    frame_to_csv(path, MERCEDES)
    assert main(["check-cp", path]) == 0


def test_check_cp_capacity_is_error(tmp_path, monkeypatch, capsys):
    # a walk that needs more screened rows than the budget is refused
    cols = np.hstack([MERCEDES.vectors, MERCEDES.vectors[:, :1]])
    frame = pr.Frame(cols, pr.Field.REAL)
    monkeypatch.setattr(pr.frames, "_WALK_BUDGET", 2)
    assert main(["check-cp", write_frame(tmp_path, frame)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "screened rows" in err and err.count("\n") == 1


def test_check_cp_past_cap_certified_through_full_spark(tmp_path, capsys):
    frame = pr.gen_random_frame(3, 30, pr.Field.REAL, seed=0)
    assert main(["check-cp", write_frame(tmp_path, frame)]) == 0
    assert "holds" in capsys.readouterr().out


def test_check_cp_tiny_frame_is_valid_input(tmp_path, capsys):
    # the walk is scale-invariant, so a frame of norm 1e-9 is decided, not refused
    tiny = pr.Frame(1e-9 * MERCEDES.vectors, pr.Field.REAL)
    assert main(["check-cp", write_frame(tmp_path, tiny)]) == 0
    assert "holds" in capsys.readouterr().out


@pytest.mark.parametrize("scale", [5e-324, 1e-170, 1e170])
@pytest.mark.parametrize("field", [pr.Field.REAL, pr.Field.COMPLEX], ids=["real", "complex"])
def test_extreme_scales_decide_like_scale_one(tmp_path, scale, field):
    # {s e1, s e2, s (e1+e2)} gets scale one's exit code and report results
    # from every command, with no warning (the suite turns them into
    # errors): no norm, square or determinant overflows or underflows
    def run(s, argv):
        frame = pr.Frame((s * MERCEDES.vectors).astype(field.dtype), field)
        out = str(tmp_path / "report.json")
        code = main([argv[0], write_frame(tmp_path, frame), *argv[1:], "--out", out])
        return code, load_json(out)["results"]

    for argv in (["check-cp"], ["check-spark"], ["falsify", "--mode", "spanning"],
                 ["falsify", "--mode", "pr"]):
        assert run(scale, argv) == run(1.0, argv), argv
    if field is pr.Field.REAL:
        # the frame does phase retrieval: check-cp and falsify agree
        assert run(scale, ["check-cp"])[0] == run(scale, ["falsify", "--mode", "spanning"])[0] == 0


def test_check_spark(tmp_path, capsys):
    assert main(["check-spark", write_frame(tmp_path, MERCEDES)]) == 0
    par = pr.Frame(np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0]]), pr.Field.REAL)
    assert main(["check-spark", write_frame(tmp_path, par)]) == 1
    # dependent subset reported with 1-based labels
    assert "{1, 3}" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# falsify

def test_falsify_real_cp_failure(tmp_path, capsys):
    code = main(["falsify", write_frame(tmp_path, AXES), "--restarts", "8"])
    assert code == 1
    assert "falsified" in capsys.readouterr().out


def test_falsify_pr_inconclusive(tmp_path):
    code = main(["falsify", write_frame(tmp_path, MERCEDES), "--restarts", "4",
                 "--iters", "60"])
    assert code == 3


def test_falsify_spanning_mode_certifies(tmp_path, capsys):
    assert main(["falsify", write_frame(tmp_path, MERCEDES), "--mode", "spanning"]) == 0
    assert "certified-holds" in capsys.readouterr().out
    assert main(["falsify", write_frame(tmp_path, AXES), "--mode", "spanning"]) == 1


def test_falsify_complex_hermitian_route(tmp_path, capsys):
    # the lifted search reaches the Hermitian witness through [P_i x, ix]
    f = pr.gen_random_frame(2, 3, pr.Field.COMPLEX, seed=3)
    code = main(["falsify", write_frame(tmp_path, f), "--restarts", "8"])
    assert code == 1
    assert "lifted-spanning" in capsys.readouterr().out


def test_falsify_loose_rank_tolerance_is_inconclusive(tmp_path, capsys):
    # at --tol-rank 1e-2 the first two vectors count as one line, so the search
    # meets points that fail to span by that rule yet carry no witness within
    # the witness tolerance: an inconclusive search, not an input error
    f = pr.Frame(np.array([[1.0, 1.0, 0.0], [0.0, 1e-3, 1.0]]), pr.Field.REAL)
    code = main(["falsify", write_frame(tmp_path, f), "--tol-rank", "1e-2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == ""
    assert "no-witness-found" in captured.out


def test_falsify_spanning_loose_rank_tolerance_is_certified(tmp_path, capsys):
    # the same rule certifies the failing bipartition {1, 2} | {3}; no pair
    # is orthogonal within proj_tol, which leaves the verdict without one
    f = pr.Frame(np.array([[1.0, 1.0, 0.0], [0.0, 1e-5, 1.0]]), pr.Field.REAL)
    code = main(["falsify", write_frame(tmp_path, f), "--mode", "spanning",
                 "--tol-rank", "1e-2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert "certified-fails" in captured.out and "I = {1, 2}" in captured.out


@pytest.mark.parametrize("cmd", [["check-cp"], ["falsify", "--mode", "spanning"]])
def test_loose_rank_tolerance_reaches_the_cp_screen(tmp_path, capsys, cmd):
    # at --tol-rank 1e-2 the first two vectors count as one line, so
    # {1, 2} | {3} fails; the Gram screen must not call {1, 2, 3} a clear span
    f = pr.Frame(np.array([[1.0, 1.0, 0.0], [0.0, 1e-3, 1.0]]), pr.Field.REAL)
    code = main([cmd[0], write_frame(tmp_path, f), *cmd[1:], "--tol-rank", "1e-2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert "I = {1, 2}" in captured.out and "I^c = {3}" in captured.out


def test_falsify_report_out(tmp_path):
    out = str(tmp_path / "report.json")
    main(["falsify", write_frame(tmp_path, AXES), "--restarts", "4", "--out", out])
    rep = load_json(out)
    assert rep["command"][0] == "phaseret"
    assert rep["results"]["status"] == "falsified"
    assert rep["config"]["seed"] == 0
    assert "wall_time_s" in rep and "version" in rep


# ---------------------------------------------------------------------------
# gen

def test_gen_full_spark_roundtrip(tmp_path):
    out = str(tmp_path / "fs.json")
    assert main(["gen", "--kind", "full-spark", "--n", "3", "--m", "6",
                 "--field", "real", "--out", out]) == 0
    f = frame_from_dict(load_json(out))
    assert pr.full_spark(f) is None


def test_gen_deterministic_bytes(tmp_path):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    args = ["gen", "--kind", "random-proj", "--n", "3", "--ranks", "1,2",
            "--field", "complex", "--seed", "9"]
    main(args + ["--out", a])
    main(args + ["--out", b])
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_gen_counterexample(tmp_path, capsys):
    out = str(tmp_path / "ce.json")
    assert main(["gen", "--kind", "counterexample", "--n", "2", "--out", out]) == 0
    assert "witness" in capsys.readouterr().out
    f = frame_from_dict(load_json(out))
    assert f.dim == 2 and f.size == 3 and f.field is pr.Field.COMPLEX


def test_gen_full_spark_lost_spark_is_a_one_line_error(capsys):
    assert main(["gen", "--kind", "full-spark", "--n", "3", "--m", "5",
                 "--tol-rank", "0.5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "subset" in err and err.count("\n") == 1


def _m30_real_frame(tmp_path):
    return write_frame(tmp_path, pr.gen_random_frame(3, 30, pr.Field.REAL, seed=0))


@pytest.mark.parametrize("argv", [
    lambda tmp: ["gen", "--kind", "counterexample", "--n", "13", "--restarts", "1",
                 "--iters", "1"],
    lambda tmp: ["falsify", _m30_real_frame(tmp), "--mode", "spanning", "--restarts", "16"],
    lambda tmp: ["gen", "--kind", "full-spark", "--n", "8", "--m", "10", "--field", "real"],
], ids=["counterexample-past-spark-cap", "spanning-past-cp-cap", "real-full-spark-n8"])
def test_valid_input_never_exits_2(argv, tmp_path, capsys):
    assert main(argv(tmp_path)) in (0, 1, 3)
    assert capsys.readouterr().err == ""


def test_gen_stdout_json(capsys):
    assert main(["gen", "--kind", "full-spark", "--n", "2", "--m", "3",
                 "--field", "real"]) == 0
    out = capsys.readouterr().out
    payload = out[out.index("{"):]
    obj = json.loads(payload)
    assert obj["dim"] == 2 and len(obj["vectors"]) == 3


def test_gen_missing_flags_error(capsys):
    assert main(["gen", "--kind", "full-spark", "--n", "3"]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# survey

def test_survey_csv(tmp_path):
    out = str(tmp_path / "survey.csv")
    code = main(["survey", "--n-range", "2", "--m-range", "2:3", "--field", "real",
                 "--trials", "4", "--out", out])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["m"] for r in rows] == ["2", "3"]
    assert all(r["field"] == "real" for r in rows)
    assert float(rows[0]["rate"]) == 0.0  # two real vectors never do PR
    assert float(rows[1]["rate"]) == 1.0  # three generic ones always do
    assert all(r["trials"] == "4" for r in rows)


def test_survey_real_past_cap_reports_rates(tmp_path):
    # m = 25, 26 were past the old cap of 24 on m; generic frames hold CP,
    # and the bipartition walk certifies them within its row budget, so
    # every cell gets an exact rate
    out = str(tmp_path / "survey.csv")
    code = main(["survey", "--field", "real", "--n-range", "3", "--m-range", "25:26",
                 "--trials", "2", "--out", out])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["m"] for r in rows] == ["25", "26"]
    assert [r["rate"] for r in rows] == ["1.000000", "1.000000"]
    assert all(r["note"] == "" for r in rows)


def test_survey_real_over_walk_budget_reports_na(tmp_path, monkeypatch):
    # a real cell whose bipartition walk exceeds its row budget reads NA,
    # with the refusal as its note, and the survey still exits 0
    out = str(tmp_path / "survey.csv")
    monkeypatch.setattr(pr.frames, "_WALK_BUDGET", 8)
    code = main(["survey", "--field", "real", "--n-range", "3", "--m-range", "2:4",
                 "--trials", "2", "--out", out])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["m"] for r in rows] == ["2", "3", "4"]
    assert [r["rate"] for r in rows] == ["0.000000", "0.000000", "NA"]
    assert rows[2]["mean_runtime"] == "NA" and "more than 8 screened rows" in rows[2]["note"]
    assert rows[0]["note"] == rows[1]["note"] == ""


def test_survey_complex_hermitian_applies(tmp_path):
    out = str(tmp_path / "survey.csv")
    main(["survey", "--n-range", "2", "--m-range", "3", "--field", "complex",
          "--trials", "3", "--restarts", "8", "--out", out])
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["rate"]) == 1.0  # witness exists whenever m < n^2


def test_survey_reproducible_modulo_runtime(tmp_path):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    args = ["survey", "--n-range", "2", "--m-range", "2:4", "--field", "real",
            "--trials", "3", "--seed", "5"]
    main(args + ["--out", a])
    main(args + ["--out", b])

    def strip_runtime(path):
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for r in rows:
            r.pop("mean_runtime")
        return rows

    assert strip_runtime(a) == strip_runtime(b)


# ---------------------------------------------------------------------------
# verify-witness

def test_verify_witness_valid(tmp_path, capsys):
    wp = str(tmp_path / "pair.json")
    save_json(wp, pair_to_dict(np.array([1.0, 1.0]), np.array([1.0, -1.0]), pr.Field.REAL))
    assert main(["verify-witness", write_frame(tmp_path, AXES), "--witness", wp]) == 0
    assert "valid" in capsys.readouterr().out


def test_verify_witness_invalid(tmp_path, capsys):
    wp = str(tmp_path / "pair.json")
    save_json(wp, pair_to_dict(np.array([1.0, 0.0]), np.array([0.0, 1.0]), pr.Field.REAL))
    assert main(["verify-witness", write_frame(tmp_path, AXES), "--witness", wp]) == 1
    assert "invalid" in capsys.readouterr().out


def test_verify_witness_tiny_non_witness_is_invalid(tmp_path, capsys):
    # {e1, e2, e1+e2} has the complement property; the mismatch 4e-10 of
    # (1e-5 e1, 2e-5 e2) is small only because the pair is
    wp = str(tmp_path / "pair.json")
    save_json(wp, pair_to_dict(np.array([1e-5, 0.0]), np.array([0.0, 2e-5]), pr.Field.REAL))
    assert main(["verify-witness", write_frame(tmp_path, MERCEDES), "--witness", wp]) == 1
    assert "invalid" in capsys.readouterr().out


def test_verify_witness_field_mismatch(tmp_path):
    wp = str(tmp_path / "pair.json")
    save_json(wp, pair_to_dict(np.array([1.0, 1j]), np.array([1.0, -1j]), pr.Field.COMPLEX))
    assert main(["verify-witness", write_frame(tmp_path, AXES), "--witness", wp]) == 2


# ---------------------------------------------------------------------------
# error handling and seeding

_GOOD_FILES = {
    "vectors": {"field": "real", "dim": 2, "vectors": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]},
    "projections": {"field": "real", "dim": 2,
                    "projections": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]},
    "u": {"field": "real", "dim": 2, "u": [1.0, 1.0], "v": [1.0, -1.0]},
}


def _complex_copy(obj):
    if isinstance(obj, list):
        return [_complex_copy(x) for x in obj]
    return [obj, 0.0]


def _malformed(key: str, case: str) -> dict:
    doc = copy.deepcopy(_GOOD_FILES[key])
    if case == "short [re] pair":
        doc["field"] = "complex"
        doc[key] = _complex_copy(doc[key])
    # the first row: the list that holds the first entries
    row = doc[key]
    for _ in range({"vectors": 1, "projections": 2, "u": 0}[key]):
        row = row[0]
    if case == "null":
        doc[key] = None
    elif case == "ragged rows":
        row.pop()
    elif case.startswith("dim"):
        doc["dim"] = None if case == "dim null" else "x"
    else:
        row[1] = {"null entry": None, "object entry": {}, "non-numeric string": "one",
                    "pair for a real": [1.0, 0.0], "short [re] pair": [1.0]}[case]
    return doc


@pytest.mark.parametrize("case", ["null", "null entry", "object entry", "non-numeric string",
                                  "short [re] pair", "ragged rows", "pair for a real",
                                  "dim null", "dim string"])
@pytest.mark.parametrize("key", ["vectors", "projections", "u"],
                         ids=["frame", "family", "witness"])
def test_malformed_file_is_a_one_line_error(tmp_path, capsys, key, case):
    # every malformed array or dim in a frame, family or witness file is an
    # input error (exit 2) whose one stderr line names the field
    path = str(tmp_path / "bad.json")
    save_json(path, _malformed(key, case))
    argv = {"vectors": ["check-cp", path], "projections": ["falsify", path],
            "u": ["verify-witness", write_frame(tmp_path, MERCEDES), "--witness", path]}[key]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert ("dim" if case.startswith("dim") else f"'{key}'") in captured.err


def test_bad_env_seed_is_an_error_before_any_output(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PHASERET_SEED", "abc")
    assert main(["check-cp", write_frame(tmp_path, MERCEDES)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "PHASERET_SEED" in captured.err

def test_malformed_json_is_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["check-cp", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_is_exit_2(tmp_path, capsys):
    assert main(["check-cp", str(tmp_path / "no-such.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_env_seed_fallback(tmp_path, monkeypatch):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    c = str(tmp_path / "c.json")
    args = ["gen", "--kind", "random-proj", "--n", "2", "--ranks", "1", "--field", "real"]
    monkeypatch.setenv("PHASERET_SEED", "41")
    main(args + ["--out", a])
    main(args + ["--out", b])
    monkeypatch.setenv("PHASERET_SEED", "42")
    main(args + ["--out", c])
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a.json").read_bytes() != (tmp_path / "c.json").read_bytes()


def test_explicit_seed_beats_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PHASERET_SEED", "77")
    out = str(tmp_path / "a.json")
    main(["gen", "--kind", "random-proj", "--n", "2", "--ranks", "1",
          "--field", "real", "--seed", "3", "--out", out])
    assert "seed = 3" in capsys.readouterr().out


def test_one_process_reports_match_fresh_processes(tmp_path):
    # main builds its parser once per process: a command run after other,
    # different commands reports exactly what it reports as the only
    # command of a fresh interpreter, so no flag or default carries over
    frame = write_frame(tmp_path, pr.Frame(np.array([[1.0, 0.0, 1.0, 2.0],
                                                     [0.0, 1.0, 1.0, -1.0]]), pr.Field.REAL))
    commands = {
        "cp-flags": ["check-cp", frame, "--tol-rank", "1e-3", "--seed", "4"],
        "cp-defaults": ["check-cp", frame],
        "spark": ["check-spark", frame, "--tol-rank", "1e-2", "--cap", "10"],
        "gen": ["gen", "--kind", "random-proj", "--n", "3", "--ranks", "1,2",
                "--field", "complex"],
    }

    def run(name, fresh):
        out = tmp_path / f"{name}.json"
        argv = commands[name] + ["--out", str(out)]
        if fresh:
            src = str(Path(__file__).resolve().parents[1] / "src")
            env = {**os.environ, "PYTHONPATH": os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")]))}
            code = subprocess.run([sys.executable, "-m", "phaseret.cli", *argv], env=env,
                                  capture_output=True).returncode
        else:
            code = main(argv)
        report = json.loads(out.read_text())
        report.pop("wall_time_s", None)
        return code, report

    order = ["cp-flags", "cp-defaults", "spark", "gen", "cp-defaults", "cp-flags"]
    in_process = [(name, run(name, False)) for name in order]
    fresh = {name: run(name, True) for name in commands}
    assert fresh["cp-flags"][1]["config"]["rank_rtol"] == 1e-3
    assert fresh["cp-defaults"][1]["config"]["rank_rtol"] != 1e-3
    for name, got in in_process:
        assert got == fresh[name], name


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert pr.__version__ in capsys.readouterr().out
