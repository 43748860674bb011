import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_channel_demo_runs(capsys):
    runpy.run_path(str(SCRIPTS / "channel_demo.py"))["run"]()
    out = capsys.readouterr().out
    assert "lambda_2 = 11.000" in out
    assert "core concentration" in out


def test_reproduce_tables_runs(tmp_path, monkeypatch, capsys):
    script = SCRIPTS / "reproduce_tables.py"
    monkeypatch.setattr(sys, "argv", [str(script), str(tmp_path)])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(script), run_name="__main__")
    assert exit_info.value.code == 0
    assert len((tmp_path / "table_uniform.csv").read_text().splitlines()) == 6
    assert len((tmp_path / "table_two_zone.csv").read_text().splitlines()) == 4
    assert "M1 = 50, M2 = 100" in capsys.readouterr().out
