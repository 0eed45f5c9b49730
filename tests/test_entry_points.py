"""The shipped configs run through the CLI and the demo scripts run to completion.

``verify_default.json`` is left out: acceptance criterion 11 already runs
the full battery through the CLI three times.
"""
import json
import runpy
from pathlib import Path

import pytest

from entgrover import cli

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name", ["find_flat", "find_random", "count_flat", "sweep_small"])
def test_shipped_config_exits_0(name, tmp_path):
    config = SCRIPTS / "configs" / f"{name}.json"
    command = json.loads(config.read_text())["kind"]
    assert cli.main([command, "--config", str(config), "--out", str(tmp_path / "report")]) == 0


@pytest.mark.parametrize("script", ["demo_find.py", "demo_count.py"])
def test_demo_script_runs(script, capsys):
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert capsys.readouterr().out
