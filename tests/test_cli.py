import csv
import json

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


def test_check_cp_capacity_is_error(tmp_path):
    assert main(["check-cp", write_frame(tmp_path, MERCEDES), "--cap", "2"]) == 2


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


def test_verify_witness_field_mismatch(tmp_path):
    wp = str(tmp_path / "pair.json")
    save_json(wp, pair_to_dict(np.array([1.0, 1j]), np.array([1.0, -1j]), pr.Field.COMPLEX))
    assert main(["verify-witness", write_frame(tmp_path, AXES), "--witness", wp]) == 2


# ---------------------------------------------------------------------------
# error handling and seeding

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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert pr.__version__ in capsys.readouterr().out
