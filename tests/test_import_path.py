"""No command loads scipy.stats: importing it costs more start-up than most
commands spend working.  Each check runs in a fresh interpreter, since the
test process itself has scipy.stats loaded."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_cli import write_config

SRC = Path(__file__).resolve().parents[1] / "src"

RUN_CLI = """
import sys
from sapprox import cli
rc = cli.main(sys.argv[1:])
assert rc == 0, rc
"""


def loaded_after(code, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = code + "\nimport json\nprint(json.dumps(sorted(sys.modules)))\n"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys\n" + probe, *args],
        cwd=cwd, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("module", ["sapprox", "sapprox.cli"])
def test_import_leaves_scipy_stats_unloaded(module, tmp_path):
    lines = loaded_after(f"import {module}", cwd=tmp_path)
    modules = json.loads(lines[-1])
    assert module in modules
    assert "scipy.stats" not in modules


@pytest.mark.parametrize("argv", [["rate", "--oracle"], ["bound"]])
def test_command_leaves_scipy_stats_unloaded(argv, tmp_path):
    config, _ = write_config(tmp_path)
    lines = loaded_after(RUN_CLI, argv[0], "--config", str(config), *argv[1:], cwd=tmp_path)
    modules = json.loads(lines[-1])
    if "--oracle" in argv:
        # the oracle ran, so binomial_band was reached
        assert any(line.startswith("oracle n=") for line in lines)
    assert "scipy.special" in modules
    assert "scipy.stats" not in modules
