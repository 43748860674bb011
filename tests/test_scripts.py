import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_channel_demo_runs(capsys):
    runpy.run_path(str(SCRIPTS / "channel_demo.py"))["run"]()
    out = capsys.readouterr().out
    assert "lambda_2 = 11.000" in out
    assert "core concentration" in out
