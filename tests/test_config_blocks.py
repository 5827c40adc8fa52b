"""Every config error of the simulate, bound and rate blocks, line for line.

Each field of each block is tried missing, of the wrong JSON type, null and
out of range.  A case either exits 2 through `sapprox.cli.main` with
exactly the pinned `config error: <path>: <message>` lines on stderr, or
parses, and then its block holds the pinned values (the defaults among
them).  Missing blocks, blocks that are not objects and a command that has
no block are pinned too, and so is the `--workers` issue, which is reported
after the config's own.
"""

import json

import pytest

from sapprox import cli, config
from sapprox.cli import main
from sapprox.config import ConfigError, parse_config

ABSENT = object()  # a field value meaning "delete the field"

BLOCKS = {
    "simulate": {"n": 10, "record": True, "output": "traj.csv"},
    "bound": {"epsilon": 1.0, "n_grid": [4, 8], "replicas": 100, "paper_c": None,
              "output": "bound.csv"},
    "rate": {"target": "recursion", "gamma": 3.0, "r": 1.0, "n_grid": [4, 8],
             "replicas": 100, "output": "rate.csv"},
}
KEYS = {
    "simulate": ["n", "record", "output", "format"],
    "bound": ["epsilon", "n_grid", "replicas", "paper_c", "output", "format"],
    "rate": ["target", "gamma", "r", "n_grid", "replicas", "output", "format"],
}

SIMULATE_N = "simulate.n: must be an integer >= 0"
RECORD = "simulate.record: must be a boolean"
NOT_WRITTEN = "record is false, so no file is written"
EPSILON = "bound.epsilon: must be a real number > 0"
PAPER_C = "bound.paper_c: must be null or a real > 0"
TARGET = "rate.target: must be one of ('recursion', 'weighted_sum')"


def raw_config(command=None, fields=()):
    """A valid config, with `fields` set in the `command` block (a value of
    ABSENT deletes the field)."""
    raw = {
        "schema_version": 1,
        "seed": 1,
        "drift": {"kind": "linear", "parameters": {"alpha1": -1.0}, "x_star": 0.0},
        "noise": {"kind": "rademacher", "sigma": 1.0},
        "b": 2.0,
        "x0": 1.0,
        **{name: dict(block) for name, block in BLOCKS.items()},
    }
    for key, value in dict(fields).items():
        if value is ABSENT:
            del raw[command][key]
        else:
            raw[command][key] = value
    return raw


def _output_cases(command):
    output, fmt = f"{command}.output", f"{command}.format"
    return [
        (command, "output-missing", {"output": ABSENT}, [f"{output}: an output path is required"]),
        (command, "output-null", {"output": None}, [f"{output}: an output path is required"]),
        (command, "output-wrong-type", {"output": 5}, [f"{output}: must be a non-empty string"]),
        (command, "output-empty", {"output": ""}, [f"{output}: must be a non-empty string"]),
        (command, "format-wrong-type", {"format": 5}, [f"{fmt}: must be one of ('csv', 'json')"]),
        (command, "format-unknown", {"format": "xml"}, [f"{fmt}: must be one of ('csv', 'json')"]),
        (command, "unknown-field", {"extra": 1}, [f"{command}.extra: unknown field"]),
    ]


def _grid_cases(command):
    path = f"{command}.n_grid"
    return [
        (command, "n_grid-missing", {"n_grid": ABSENT}, [f"{path}: must be a list of integers"]),
        (command, "n_grid-null", {"n_grid": None}, [f"{path}: must be a list of integers"]),
        (command, "n_grid-wrong-type", {"n_grid": 8}, [f"{path}: must be a list of integers"]),
        (command, "n_grid-float-entry", {"n_grid": [4, 8.0]},
         [f"{path}: must be a list of integers"]),
        (command, "n_grid-empty", {"n_grid": []}, [f"{path}: n_grid must not be empty"]),
        (command, "n_grid-zero", {"n_grid": [0, 4]}, [f"{path}: horizons must be >= 1, got (0, 4)"]),
        (command, "n_grid-decreasing", {"n_grid": [8, 4]},
         [f"{path}: n_grid must be strictly increasing, got (8, 4)"]),
    ]


def _replicas_cases(command):
    line = f"{command}.replicas: must be an integer >= 1"
    return [
        (command, "replicas-missing", {"replicas": ABSENT}, [line]),
        (command, "replicas-null", {"replicas": None}, [line]),
        (command, "replicas-wrong-type", {"replicas": "100"}, [line]),
        (command, "replicas-float", {"replicas": 100.0}, [line]),
        (command, "replicas-bool", {"replicas": True}, [line]),
        (command, "replicas-zero", {"replicas": 0}, [line]),
    ]


ERRORS = [
    ("simulate", "n-missing", {"n": ABSENT}, [SIMULATE_N]),
    ("simulate", "n-null", {"n": None}, [SIMULATE_N]),
    ("simulate", "n-wrong-type", {"n": "10"}, [SIMULATE_N]),
    ("simulate", "n-float", {"n": 10.0}, [SIMULATE_N]),
    ("simulate", "n-negative", {"n": -1}, [SIMULATE_N]),
    ("simulate", "record-null", {"record": None}, [RECORD]),
    ("simulate", "record-wrong-type", {"record": "yes"}, [RECORD]),
    ("simulate", "record-integer", {"record": 1}, [RECORD]),
    # a record that is not a boolean is read as true, so the output is required
    ("simulate", "record-wrong-type-output-missing", {"record": "yes", "output": ABSENT},
     [RECORD, "simulate.output: an output path is required"]),
    ("simulate", "record-false-output", {"record": False},
     [f"simulate.output: {NOT_WRITTEN}"]),
    ("simulate", "record-false-output-wrong-type", {"record": False, "output": 5},
     [f"simulate.output: {NOT_WRITTEN}"]),
    ("simulate", "record-false-format", {"record": False, "output": ABSENT, "format": "csv"},
     [f"simulate.format: {NOT_WRITTEN}"]),
    ("simulate", "record-false-format-unknown", {"record": False, "output": None,
                                                 "format": "xml"},
     [f"simulate.format: {NOT_WRITTEN}"]),
    ("simulate", "record-false-both-and-unknown", {"n": -1, "record": False, "format": 5,
                                                   "extra": 1},
     [SIMULATE_N, f"simulate.output: {NOT_WRITTEN}", f"simulate.format: {NOT_WRITTEN}",
      "simulate.extra: unknown field"]),
    *_output_cases("simulate"),

    ("bound", "epsilon-missing", {"epsilon": ABSENT}, [EPSILON]),
    ("bound", "epsilon-null", {"epsilon": None}, [EPSILON]),
    ("bound", "epsilon-wrong-type", {"epsilon": "1"}, [EPSILON]),
    ("bound", "epsilon-bool", {"epsilon": True}, [EPSILON]),
    ("bound", "epsilon-zero", {"epsilon": 0}, [EPSILON]),
    ("bound", "epsilon-negative", {"epsilon": -1.0}, [EPSILON]),
    ("bound", "epsilon-infinite", {"epsilon": float("inf")}, [EPSILON]),
    *_grid_cases("bound"),
    *_replicas_cases("bound"),
    ("bound", "paper_c-wrong-type", {"paper_c": "1"}, [PAPER_C]),
    ("bound", "paper_c-zero", {"paper_c": 0}, [PAPER_C]),
    ("bound", "paper_c-negative", {"paper_c": -2.0}, [PAPER_C]),
    ("bound", "paper_c-nan", {"paper_c": float("nan")}, [PAPER_C]),
    *_output_cases("bound"),
    ("bound", "every-field", {"epsilon": 0, "n_grid": [], "replicas": 0, "paper_c": 0,
                              "output": None, "format": "xml", "extra": 1},
     [EPSILON, "bound.n_grid: n_grid must not be empty",
      "bound.replicas: must be an integer >= 1", PAPER_C,
      "bound.output: an output path is required",
      "bound.format: must be one of ('csv', 'json')", "bound.extra: unknown field"]),

    ("rate", "target-missing", {"target": ABSENT}, [TARGET]),
    ("rate", "target-null", {"target": None}, [TARGET]),
    ("rate", "target-wrong-type", {"target": 5}, [TARGET]),
    ("rate", "target-unknown", {"target": "sum"}, [TARGET]),
    ("rate", "gamma-missing", {"gamma": ABSENT}, ["rate.gamma: must be a finite real number"]),
    ("rate", "gamma-null", {"gamma": None}, ["rate.gamma: must be a finite real number"]),
    ("rate", "gamma-wrong-type", {"gamma": "3"}, ["rate.gamma: must be a finite real number"]),
    ("rate", "gamma-zero", {"gamma": 0}, ["rate.gamma: gamma must be positive, got 0.0"]),
    ("rate", "gamma-negative", {"gamma": -1}, ["rate.gamma: gamma must be positive, got -1.0"]),
    ("rate", "r-missing", {"r": ABSENT}, ["rate.r: must be a finite real number"]),
    ("rate", "r-null", {"r": None}, ["rate.r: must be a finite real number"]),
    ("rate", "r-wrong-type", {"r": [1.0]}, ["rate.r: must be a finite real number"]),
    ("rate", "r-zero", {"r": 0.0}, ["rate.r: r must be positive, got 0.0"]),
    *_grid_cases("rate"),
    *_replicas_cases("rate"),
    *_output_cases("rate"),
    ("rate", "every-field", {"target": None, "gamma": "3", "r": None, "n_grid": None,
                             "replicas": 0, "output": 5, "format": "xml", "extra": 1},
     [TARGET, "rate.gamma: must be a finite real number",
      "rate.r: must be a finite real number", "rate.n_grid: must be a list of integers",
      "rate.replicas: must be an integer >= 1", "rate.output: must be a non-empty string",
      "rate.format: must be one of ('csv', 'json')", "rate.extra: unknown field"]),
]


def _run(tmp_path, monkeypatch, command, raw, *flags):
    monkeypatch.chdir(tmp_path)  # a run that should not parse writes nothing elsewhere
    (tmp_path / "exp.json").write_text(json.dumps(raw))
    return main([command, "--config", "exp.json", *flags])


@pytest.mark.parametrize("command, fields, lines", [
    pytest.param(command, fields, lines, id=f"{command}.{case}")
    for command, case, fields, lines in ERRORS
])
def test_error_lines_and_exit_2(tmp_path, monkeypatch, capsys, command, fields, lines):
    assert _run(tmp_path, monkeypatch, command, raw_config(command, fields)) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {line}" for line in lines]
    assert list(tmp_path.iterdir()) == [tmp_path / "exp.json"]


# the parsed value of each pinned field, with its type (an integer epsilon,
# paper_c, gamma or r becomes a float)
PARSED = [
    ("simulate", "record-missing", {"record": ABSENT}, {"record": True}),
    ("simulate", "record-false", {"record": False, "output": ABSENT},
     {"record": False, "output": None, "format": "csv"}),
    ("simulate", "record-false-output-null", {"record": False, "output": None,
                                              "format": None},
     {"record": False, "output": None, "format": "csv"}),
    ("simulate", "n-zero", {"n": 0}, {"n": 0}),
    ("simulate", "format-missing", {}, {"format": "csv", "output": "traj.csv"}),
    ("simulate", "format-null", {"format": None}, {"format": "csv"}),
    ("simulate", "format-json", {"format": "json"}, {"format": "json"}),
    ("bound", "paper_c-missing", {"paper_c": ABSENT}, {"paper_c": None}),
    ("bound", "paper_c-null", {}, {"paper_c": None}),
    ("bound", "paper_c-integer", {"paper_c": 2}, {"paper_c": 2.0}),
    ("bound", "epsilon-integer", {"epsilon": 2}, {"epsilon": 2.0}),
    ("bound", "n_grid", {}, {"n_grid": (4, 8), "replicas": 100}),
    ("bound", "format-null", {"format": None}, {"format": "csv"}),
    ("rate", "defaults", {}, {"target": "recursion", "format": "csv", "n_grid": (4, 8)}),
    ("rate", "integers", {"gamma": 3, "r": 1}, {"gamma": 3.0, "r": 1.0}),
    ("rate", "format-json", {"format": "json"}, {"format": "json"}),
]


@pytest.mark.parametrize("command, fields, expected", [
    pytest.param(command, fields, expected, id=f"{command}.{case}")
    for command, case, fields, expected in PARSED
])
def test_parsed_values_and_defaults(command, fields, expected):
    block = parse_config(raw_config(command, fields), command).block
    assert list(block) == KEYS[command]
    assert {key: (type(block[key]), block[key]) for key in expected} == {
        key: (type(value), value) for key, value in expected.items()}


def test_rate_schedule_is_built_from_the_block():
    cfg = parse_config(raw_config("rate", {"gamma": 2, "n_grid": [3, 9]}), "rate")
    assert (cfg.schedule.gamma, cfg.schedule.r, cfg.schedule.n_grid) == (2.0, 1.0, (3, 9))
    assert parse_config(raw_config(), "bound").schedule is None


def test_rate_outside_the_deviation_regime_exits_2(tmp_path, monkeypatch, capsys):
    code = _run(tmp_path, monkeypatch, "rate", raw_config(),
                "--set", "drift.parameters.alpha1=-0.25")
    assert code == 2
    assert capsys.readouterr().err == (
        "config error: rate: b * g'(x*) = -0.5 must be < -1 for deviation-rate operations\n")


def test_rate_regime_is_not_checked_without_a_drift(tmp_path, monkeypatch, capsys):
    code = _run(tmp_path, monkeypatch, "rate", raw_config(), "--set", "drift.kind=cubic")
    assert code == 2
    assert capsys.readouterr().err == (
        "config error: drift.kind: must be one of ('linear', 'sine_linear')\n")


MODEL_FAILURES = {
    "drift": ("drift.kind=cubic", "drift.kind: must be one of ('linear', 'sine_linear')"),
    "noise": ("noise.kind=gauss",
              "noise.kind: must be one of ('rademacher', 'two_point_adaptive')"),
}


# a rule gets the spec as parse_config built it, which may be None or hold
# a None drift or noise; b and x0 stay valid here, so the spec is built
@pytest.mark.parametrize("command", [name for name, (_, rule) in config._BLOCKS.items()
                                     if rule is not None])
@pytest.mark.parametrize("failed", [("drift",), ("noise",), ("drift", "noise")],
                         ids="+".join)
def test_rules_take_a_spec_whose_models_failed(tmp_path, monkeypatch, capsys, command,
                                               failed):
    sets = [arg for model in failed for arg in ("--set", MODEL_FAILURES[model][0])]
    assert _run(tmp_path, monkeypatch, command, raw_config(), *sets) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [f"config error: {MODEL_FAILURES[model][1]}" for model in failed]


def test_record_false_refuses_only_the_blocks_own_fields(tmp_path, monkeypatch, capsys):
    # a root key spelled like the block's field is an unknown root field
    raw = raw_config("simulate", {"record": False, "output": ABSENT})
    raw["simulate.output"] = "traj.csv"
    assert _run(tmp_path, monkeypatch, "simulate", raw) == 2
    assert capsys.readouterr().err == "config error: simulate.output: unknown field\n"


@pytest.mark.parametrize("command", list(BLOCKS))
@pytest.mark.parametrize("block", [ABSENT, None, [], "x", 5])
def test_missing_or_non_object_block_exits_2(tmp_path, monkeypatch, capsys, command, block):
    raw = raw_config()
    if block is ABSENT:
        del raw[command]
    else:
        raw[command] = block
    assert _run(tmp_path, monkeypatch, command, raw) == 2
    assert capsys.readouterr().err == f"config error: {command}: missing '{command}' block\n"


@pytest.mark.parametrize("block, lines", [
    (ABSENT, ["curve: missing 'curve' block"]),
    ([], ["curve: unknown field", "curve: missing 'curve' block"]),
    ({}, ["curve: unknown field", "curve: unknown command 'curve'"]),
    ({"n": 3, "epsilon": 1.0}, ["curve: unknown field", "curve: unknown command 'curve'",
                                "curve.n: unknown field", "curve.epsilon: unknown field"]),
])
def test_unknown_command(block, lines):
    raw = raw_config()
    if block is not ABSENT:
        raw["curve"] = block
    with pytest.raises(ConfigError) as exc:
        parse_config(raw, "curve")
    assert [str(issue) for issue in exc.value.issues] == lines


def test_no_command_parses_no_block():
    raw = raw_config()
    del raw["simulate"], raw["bound"], raw["rate"]
    cfg = parse_config(raw)
    assert (cfg.block, cfg.schedule) == ({}, None)


@pytest.mark.parametrize("flags, lines", [
    (["--set", "seed=-1"], ["seed: must lie in [0, 2^64), got -1"]),
    (["--set", "bound.replicas=0", "--set", "bound.extra=1"],
     ["bound.replicas: must be an integer >= 1", "bound.extra: unknown field"]),
    (["--set", "b.x=1"], ["b.x=1: b is not an object, so it has no field x"]),
    ([], []),
])
@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_issue_follows_the_config_issues(tmp_path, monkeypatch, capsys,
                                                 flags, lines, workers):
    code = _run(tmp_path, monkeypatch, "bound", raw_config(), "--workers", workers, *flags)
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: {line}" for line in [*lines, "workers: must be >= 1"]]


def test_unreadable_config_exits_1_before_workers(tmp_path, capsys):
    assert main(["bound", "--config", str(tmp_path / "absent.json"), "--workers", "0"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


class TestCommandTables:
    """The cli's command table and the config's block table name the same
    commands, and each command's parser takes only its own flags."""

    def test_same_commands(self):
        assert list(cli._COMMANDS) == list(config._BLOCKS) == list(BLOCKS)
        assert set(config._BLOCKS) <= set(config.ROOT_FIELDS)

    @pytest.mark.parametrize("command", list(BLOCKS))
    def test_only_rate_takes_oracle(self, command, capsys):
        argv = [command, "--config", "exp.json", "--oracle"]
        if command == "rate":
            assert cli._build_parser().parse_args(argv).oracle is True
        else:
            with pytest.raises(SystemExit) as exc:
                cli._build_parser().parse_args(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments: --oracle" in capsys.readouterr().err
