import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_counterexample_demo_runs(monkeypatch, capsys):
    script = SCRIPTS / "counterexample_demo.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--n-max", "3"])
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert "n = 2:" in out and "n = 3:" in out
    assert out.count("independent recheck: valid = True") == 2
