"""Each output column is named once, where its value is made.

`simulate`, `bound` and `rate` run through `sapprox.cli.main` in csv and
json.  The CSV header, the JSON `columns` and the keys of every JSON row
are one list; rate's is the field list of `mdp.TailEstimate`, its footer
is the CSV's last line, and `limit_rate` is the only footer field that
reaches the JSON document.
"""

import dataclasses
import json

import pytest

from sapprox.cli import main
from sapprox.mdp import TailEstimate

GRID = [8, 12]
CONFIG = {
    "schema_version": 1,
    "seed": 2501,
    "drift": {"kind": "linear", "parameters": {"alpha1": -1.0}, "x_star": 0.0},
    "noise": {"kind": "rademacher", "sigma": 1.0},
    "b": 2.0,
    "x0": 1.0,
    "simulate": {"n": 5, "output": "out"},
    "bound": {"epsilon": 3.0, "n_grid": GRID, "replicas": 500, "paper_c": 1.0,
              "output": "out"},
    "rate": {"target": "weighted_sum", "gamma": 3.0, "r": 1.0, "n_grid": GRID,
             "replicas": 500, "output": "out"},
}
TABLE_KEYS = {"schema_version", "command", "columns", "rows"}


def _tables(tmp_path, command):
    """(csv lines, json document) of one command on CONFIG."""
    (tmp_path / "exp.json").write_text(json.dumps(CONFIG))
    out = {}
    for fmt in ("csv", "json"):
        path = tmp_path / f"{command}.{fmt}"
        argv = [command, "--config", str(tmp_path / "exp.json"),
                "--output", str(path), "--format", fmt]
        assert main(argv) == 0
        out[fmt] = path.read_text()
    return out["csv"].splitlines(), json.loads(out["json"])


@pytest.mark.parametrize("command", ["simulate", "bound", "rate"])
def test_header_columns_and_row_keys_are_one_list(tmp_path, command):
    lines, doc = _tables(tmp_path, command)
    header = lines[0].split(",")
    assert doc["columns"] == header
    assert doc["rows"]
    for row in doc["rows"]:  # json.dumps sorts each row's keys
        assert sorted(row) == sorted(header)
    if command == "rate":
        assert header == [f.name for f in dataclasses.fields(TailEstimate)]


@pytest.mark.parametrize("command", ["simulate", "bound"])
def test_no_footer_without_one(tmp_path, command):
    lines, doc = _tables(tmp_path, command)
    assert len(lines) == 1 + len(doc["rows"])
    assert set(doc) == TABLE_KEYS


def test_rate_footer_is_the_last_csv_line_and_one_json_key(tmp_path):
    lines, doc = _tables(tmp_path, "rate")
    header = lines[0].split(",")
    assert len(lines) == 1 + len(GRID) + 1
    footer = dict(zip(header, lines[-1].split(",")))
    assert footer.pop("n") == "limit"
    assert float(footer.pop("limit_rate")) == -0.5
    assert set(footer.values()) == {""}
    assert set(doc) == TABLE_KEYS | {"limit_rate"}
    assert doc["limit_rate"] == -0.5
    assert [row["limit_rate"] for row in doc["rows"]] == [-0.5] * len(GRID)
