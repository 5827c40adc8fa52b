import json
import math
import os
import stat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from model_strategies import specs

from sapprox import selftest as selftest_mod
from sapprox import weights
from sapprox.cli import main
from sapprox.config import apply_overrides, canonical_json, load_raw, parse_config
from sapprox.model import DRIFTS, NOISES


def write_config(tmp_path, **kwargs):
    cfg = {
        "schema_version": 1,
        "seed": 20240801,
        "drift": {"kind": "linear", "parameters": {"alpha1": -1.0}, "x_star": 0.0},
        "noise": {"kind": "rademacher", "sigma": 1.0},
        "b": 2.0,
        "x0": 1.0,
        "simulate": {"n": 10, "record": True, "output": str(tmp_path / "traj.csv")},
        "bound": {
            "epsilon": 3.0,
            "n_grid": [500, 1000],
            "replicas": 5000,
            "paper_c": None,
            "output": str(tmp_path / "bound.csv"),
        },
        "rate": {
            "target": "weighted_sum",
            "gamma": 3.0,
            "r": 1.0,
            "n_grid": [12, 41],
            "replicas": 20000,
            "output": str(tmp_path / "rate.csv"),
        },
    }
    cfg.update(kwargs)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


class TestConfigValidation:
    def test_sine_params_flagged_with_field_path(self, tmp_path, capsys):
        path, _ = write_config(
            tmp_path,
            drift={"kind": "sine_linear", "parameters": {"c1": 1.0, "c2": 2.0},
                   "x_star": 0.0},
        )
        assert main(["simulate", "--config", str(path)]) == 2
        assert "drift.parameters" in capsys.readouterr().err

    def test_missing_seed_rejected(self, tmp_path, capsys):
        path, cfg = write_config(tmp_path)
        del cfg["seed"]
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path)]) == 2
        assert "seed" in capsys.readouterr().err

    def test_seed_outside_64_bits_rejected(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        for seed in (-1, 2**64, 2**70):
            code = main(["simulate", "--config", str(path), "--set", f"seed={seed}"])
            assert code == 2, seed
            assert "seed: must lie in [0, 2^64)" in capsys.readouterr().err

    def test_seed_at_64_bit_ends_accepted(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        for seed in (0, 2**64 - 1):
            code = main(["simulate", "--config", str(path), "--set", f"seed={seed}"])
            assert code == 0, seed

    def test_empty_n_grid_rejected(self, tmp_path, capsys):
        path, _ = write_config(
            tmp_path,
            rate={"target": "weighted_sum", "gamma": 3.0, "r": 1.0, "n_grid": [],
                  "replicas": 10, "output": str(tmp_path / "r.csv")},
        )
        assert main(["rate", "--config", str(path)]) == 2
        assert "rate.n_grid" in capsys.readouterr().err

    def test_weak_contraction_rejected_for_rate(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, b=0.5)
        assert main(["rate", "--config", str(path)]) == 2
        assert "g'(x*)" in capsys.readouterr().err

    def test_missing_config_file_is_runtime_error(self, capsys):
        assert main(["simulate", "--config", "/nonexistent/nope.json"]) == 1

    def test_malformed_json_is_validation_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path)]) == 2

    def test_directory_as_config_is_runtime_error(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_undecodable_config_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"seed": "\xff"}')
        assert main(["simulate", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config is not valid JSON: ")

    def test_all_violations_reported_together(self, tmp_path, capsys):
        path, cfg = write_config(tmp_path, b=-1.0)
        cfg["noise"] = {"kind": "rademacher", "sigma": -2.0}
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "b:" in err and "noise.sigma" in err

    @pytest.mark.parametrize("override, path", [
        ("x0=NaN", "x0"),
        ("drift.x_star=NaN", "drift.x_star"),
        ("drift.parameters.alpha1=-Infinity", "drift.parameters.alpha1"),
        ("b=Infinity", "b"),
        ("noise.sigma=Infinity", "noise.sigma"),
    ])
    def test_non_finite_number_rejected(self, tmp_path, capsys, override, path):
        cfg_path, _ = write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg_path), "--set", override]) == 2
        assert f"config error: {path}: must be a finite real number" in capsys.readouterr().err
        assert not (tmp_path / "traj.csv").exists()

    @pytest.mark.parametrize("command, override, path", [
        ("simulate", "drift.parameters.alpha1=0", "drift.parameters.alpha1"),
        ("simulate", 'drift={"kind": "sine_linear", "parameters": {"c1": 2, "c2": 2}}',
         "drift.parameters"),
        ("simulate", 'drift={"kind": "sine_linear", "parameters": {"c1": 2, "c2": 0}}',
         "drift.parameters"),
        ("simulate", "noise.sigma=0", "noise.sigma"),
        ("simulate", 'noise={"kind": "two_point_adaptive", "sigma": 0, "p_min": 0.3, '
         '"p_max": 0.7}', "noise.sigma"),
        ("simulate", 'noise={"kind": "two_point_adaptive", "sigma": 1, "p_min": 0, '
         '"p_max": 0.7}', "noise"),
        ("simulate", 'noise={"kind": "two_point_adaptive", "sigma": 1, "p_min": 0.3, '
         '"p_max": 1}', "noise"),
        ("simulate", 'noise={"kind": "two_point_adaptive", "sigma": 1, "p_min": 0.7, '
         '"p_max": 0.3}', "noise"),
        ("simulate", "b=0", "b"),
        ("rate", "b=0.5", "rate"),
        ("rate", "rate.gamma=0", "rate.gamma"),
        ("rate", "rate.r=-1", "rate.r"),
        ("rate", "rate.n_grid=[0, 5]", "rate.n_grid"),
        ("rate", "rate.n_grid=[5, 5]", "rate.n_grid"),
        ("bound", "bound.n_grid=[]", "bound.n_grid"),
        ("bound", "bound.n_grid=[10, 3]", "bound.n_grid"),
    ])
    def test_constructor_constraints_exit_2_with_path(self, tmp_path, capsys, command,
                                                      override, path):
        cfg_path, _ = write_config(tmp_path)
        assert main([command, "--config", str(cfg_path), "--set", override]) == 2
        assert f"config error: {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command, override, path", [
        ("simulate", "noise.sigm=3", "noise.sigm"),
        ("simulate", "simulate.nn=3", "simulate.nn"),
        ("simulate", "drift.parameters.alpha=-5", "drift.parameters.alpha"),
        ("simulate", "drift.alpha1=-5", "drift.alpha1"),
        ("rate", "rate.replica=5", "rate.replica"),
        ("simulate", "zz=1", "zz"),
    ])
    def test_unknown_field_exits_2_with_path(self, tmp_path, capsys, command, override,
                                             path):
        cfg_path, _ = write_config(tmp_path)
        assert main([command, "--config", str(cfg_path), "--set", override]) == 2
        assert f"config error: {path}: unknown field" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["exp.json"]

    def test_other_commands_blocks_not_checked(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg_path), "--set", "rate.zz=1"]) == 0

    def test_unknown_kind_lists_registered_kinds(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg_path), "--set", "noise.kind=gauss",
                     "--set", "drift.kind=cubic"]) == 2
        err = capsys.readouterr().err
        assert f"drift.kind: must be one of {tuple(DRIFTS)}" in err
        assert f"noise.kind: must be one of {tuple(NOISES)}" in err

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_spec_round_trips_through_config(self, data):
        spec = data.draw(specs(data.draw(st.sampled_from(sorted(DRIFTS))),
                               data.draw(st.sampled_from(sorted(NOISES)))))
        desc = spec.describe()
        drift = dict(desc["drift"])
        raw = {
            "schema_version": 1,
            "seed": 1,
            "drift": {"kind": drift.pop("kind"), "x_star": drift.pop("x_star"),
                      "parameters": drift},
            **{key: desc[key] for key in ("noise", "b", "x0")},
        }
        got = parse_config(json.loads(json.dumps(raw))).spec
        assert got == spec
        assert got.fingerprint() == spec.fingerprint()

    def test_round_trip_idempotent(self, tmp_path):
        path, _ = write_config(tmp_path)
        raw = load_raw(path)
        once = canonical_json(raw)
        twice = canonical_json(json.loads(once))
        assert once == twice

    def test_overrides_parse_json_values(self, tmp_path):
        path, _ = write_config(tmp_path)
        raw = load_raw(path)
        out = apply_overrides(raw, ["b=3.5", "simulate.n=20", "drift.x_star=-1.0",
                                    "extra.deep.field=1"])
        assert out["b"] == 3.5
        assert out["extra"] == {"deep": {"field": 1}}  # missing objects created
        assert out["simulate"]["n"] == 20
        assert out["drift"]["x_star"] == -1.0
        assert raw["b"] == 2.0  # original untouched

    @pytest.mark.parametrize("override", [".seed=3", "seed.=3", "=3", "seed"])
    def test_malformed_override_exits_2_naming_it(self, tmp_path, capsys, override):
        path, _ = write_config(tmp_path)
        assert main(["simulate", "--config", str(path), "--set", override]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {override}: override must look like key.path=value\n"
        assert not (tmp_path / "traj.csv").exists()

    @pytest.mark.parametrize("override, parent, child", [
        ("b.x=1", "b", "x"),
        ("rate.n_grid.0=5", "rate.n_grid", "0"),
    ])
    def test_override_through_a_non_object_exits_2_naming_it(
            self, tmp_path, capsys, override, parent, child):
        path, _ = write_config(tmp_path)
        assert main(["rate", "--config", str(path), "--set", override]) == 2
        err = capsys.readouterr().err
        assert err == (f"config error: {override}: {parent} is not an object, "
                       f"so it has no field {child}\n")

    def test_parse_builds_spec(self, tmp_path):
        path, _ = write_config(tmp_path)
        cfg = parse_config(load_raw(path), command="simulate")
        assert cfg.spec.b == 2.0
        assert cfg.seed == 20240801

    def test_parsed_block_fills_defaults(self, tmp_path):
        _, raw = write_config(tmp_path, simulate={"n": 10, "output": "t.csv"})
        del raw["bound"]["paper_c"]
        assert parse_config(raw, command="simulate").block == {
            "n": 10, "record": True, "output": "t.csv", "format": "csv"}
        bound = parse_config(raw, command="bound").block
        assert bound["paper_c"] is None and bound["format"] == "csv"
        assert bound["n_grid"] == (500, 1000)
        assert parse_config(raw, command="rate").block["format"] == "csv"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_integer_numbers_give_the_bytes_of_floats(self, tmp_path, capsys, fmt):
        path, _ = write_config(tmp_path)
        runs = []
        for value in ("2", "2.0"):
            sets = [f"{key}={value}" for key in ("bound.epsilon", "bound.paper_c", "x0")]
            argv = ["bound", "--config", str(path), "--format", fmt]
            assert main(argv + [arg for s in sets for arg in ("--set", s)]) == 0
            runs.append(((tmp_path / "bound.csv").read_bytes(), capsys.readouterr().out))
        assert runs[0] == runs[1]
        if fmt == "json":
            assert json.loads(runs[0][0])["rows"][0]["epsilon"] == 2.0
            assert b'"epsilon": 2.0' in runs[0][0]


class TestSimulateCommand:
    def test_writes_expected_rows(self, tmp_path, capsys):
        path, cfg = write_config(tmp_path)
        assert main(["simulate", "--config", str(path)]) == 0
        lines = (tmp_path / "traj.csv").read_text().splitlines()
        assert lines[0] == "k,x_k,u_k"
        assert len(lines) == 1 + 12  # states X_0..X_11 for n = 10
        assert lines[1].endswith(",")  # u_0 empty
        out = capsys.readouterr().out
        assert "final_deviation=" in out and "envelope_F=" in out

    def test_record_off_no_file(self, tmp_path, capsys):
        path, _ = write_config(
            tmp_path, simulate={"n": 10, "record": False}
        )
        assert main(["simulate", "--config", str(path)]) == 0
        assert not (tmp_path / "traj.csv").exists()
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1

    @pytest.mark.parametrize("key, value, flag", [
        ("output", "traj.csv", False),
        ("format", "json", False),
        ("output", "traj.csv", True),
        ("format", "json", True),
        ("output", "", False),
        ("output", "", True),
        ("format", "xml", False),
        ("format", "xml", True),
    ])
    def test_record_off_rejects_an_output(self, tmp_path, capsys, monkeypatch,
                                          key, value, flag):
        # nothing would be written there, so giving it is an error
        monkeypatch.chdir(tmp_path)
        simulate = {"n": 10, "record": False}
        if not flag:
            simulate[key] = value
        path, _ = write_config(tmp_path, simulate=simulate)
        argv = ["simulate", "--config", str(path)] + ([f"--{key}", value] if flag else [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"config error: simulate.{key}: record is false, "
                                "so no file is written\n")
        assert captured.out == ""
        assert sorted(os.listdir(tmp_path)) == ["exp.json"]

    def test_deterministic_across_runs(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        main(["simulate", "--config", str(path)])
        first = (tmp_path / "traj.csv").read_bytes()
        out1 = capsys.readouterr().out
        main(["simulate", "--config", str(path)])
        second = (tmp_path / "traj.csv").read_bytes()
        out2 = capsys.readouterr().out
        assert first == second and out1 == out2

    def test_set_override_changes_output(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        main(["simulate", "--config", str(path)])
        base = (tmp_path / "traj.csv").read_bytes()
        capsys.readouterr()
        main(["simulate", "--config", str(path), "--set", "seed=7"])
        changed = (tmp_path / "traj.csv").read_bytes()
        assert base != changed

    def test_json_format(self, tmp_path):
        path, _ = write_config(tmp_path)
        out = tmp_path / "traj.json"
        assert main([
            "simulate", "--config", str(path), "--output", str(out),
            "--format", "json",
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["command"] == "simulate"
        assert len(doc["rows"]) == 12
        assert doc["rows"][0]["u_k"] is None

    def test_unwritable_output_is_io_error(self, tmp_path):
        path, _ = write_config(
            tmp_path,
            simulate={"n": 5, "record": True,
                      "output": str(tmp_path / "no_dir" / "t.csv")},
        )
        assert main(["simulate", "--config", str(path)]) == 1


class TestAtomicOutput:
    class HalfWriter:
        """Writes half of the first chunk it is given, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            raise OSError("disk full")

    @pytest.mark.parametrize("command, name, fmt", [
        ("simulate", "traj.csv", "csv"),
        ("simulate", "traj.csv", "json"),
        ("rate", "rate.csv", "csv"),
    ])
    def test_failed_write_keeps_old_output(self, tmp_path, monkeypatch, command,
                                           name, fmt):
        import sapprox.cli as cli_mod

        path, _ = write_config(tmp_path)
        args = [command, "--config", str(path), "--format", fmt]
        assert main(args) == 0
        before = (tmp_path / name).read_bytes()
        listing = sorted(os.listdir(tmp_path))
        real_fdopen = os.fdopen
        monkeypatch.setattr(cli_mod.os, "fdopen",
                            lambda fd, mode: self.HalfWriter(real_fdopen(fd, mode)))
        assert main(args) == 1
        assert (tmp_path / name).read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == listing

    @pytest.mark.parametrize("name", ["missing/rate.csv", "adir"])
    def test_unwritable_output_names_the_output(self, tmp_path, capsys, name):
        path, _ = write_config(tmp_path)
        (tmp_path / "adir").mkdir()
        listing = sorted(os.listdir(tmp_path))
        out = tmp_path / name
        assert main(["rate", "--config", str(path), "--output", str(out)]) == 1
        assert sorted(os.listdir(tmp_path)) == listing
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and str(out) in err
        assert ".tmp" not in err

    def test_output_mode_follows_umask(self, tmp_path):
        path, _ = write_config(tmp_path)
        assert main(["rate", "--config", str(path)]) == 0
        probe = tmp_path / "probe"
        probe.write_text("")
        mode = stat.S_IMODE(os.stat(tmp_path / "rate.csv").st_mode)
        assert mode == stat.S_IMODE(os.stat(probe).st_mode)


class TestOverflow:
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("target", ["recursion", "weighted_sum"])
    def test_overflowed_rate_exits_1(self, tmp_path, capsys, target):
        # c = -2000.6: intermediate states pass 2^1023 and overflow, while
        # the weights of n = 10000 have decayed back to finite values
        path, _ = write_config(
            tmp_path,
            drift={"kind": "linear", "parameters": {"alpha1": -1000.3},
                   "x_star": 0.0},
            rate={"target": target, "gamma": 3.0, "r": 1.0, "n_grid": [10000],
                  "replicas": 100, "output": str(tmp_path / "rate.csv")},
        )
        assert main(["rate", "--config", str(path)]) == 1
        assert "not finite" in capsys.readouterr().err
        assert not (tmp_path / "rate.csv").exists()


    @pytest.mark.parametrize("record", [True, False])
    def test_overflowed_simulate_exits_1(self, tmp_path, capsys, record):
        path, _ = write_config(
            tmp_path,
            drift={"kind": "linear", "parameters": {"alpha1": -1000.0},
                   "x_star": 0.0},
            simulate={"n": 1500, "record": record,
                      **({"output": str(tmp_path / "traj.csv")} if record else {})},
        )
        assert main(["simulate", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert "error: FloatingPointError: X_1501 is not finite" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "traj.csv").exists()

    @pytest.mark.parametrize("n", [1500, 2500])
    def test_overflowed_envelope_bound_exits_3(self, tmp_path, capsys, n):
        # the envelope passes float64 before n = 1500, and at n = 2500 it
        # also meets the zero factor of k = 1999: infeasible either way,
        # with no numpy warning on the way
        path, _ = write_config(
            tmp_path,
            drift={"kind": "linear", "parameters": {"alpha1": -1000.0},
                   "x_star": 0.0},
            bound={"epsilon": 3.0, "n_grid": [n], "replicas": 100,
                   "output": str(tmp_path / "bound.csv")},
        )
        assert main(["bound", "--config", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            "infeasible: margin condition infeasible for every n in the grid "
            f"(probed to {n})\n")
        assert captured.out == ""
        assert not (tmp_path / "bound.csv").exists()

    def test_overflowing_weights_exit_1(self, tmp_path, capsys):
        # c = -2000: the weight sum behind h_n overflows float64 at n = 1500
        path, _ = write_config(
            tmp_path,
            drift={"kind": "linear", "parameters": {"alpha1": -1000.0},
                   "x_star": 0.0},
            rate={"target": "recursion", "gamma": 3.0, "r": 1.0, "n_grid": [1500],
                  "replicas": 100, "output": str(tmp_path / "rate.csv")},
        )
        assert main(["rate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "error: FloatingPointError: the product weights overflow float64" in err
        assert not (tmp_path / "rate.csv").exists()


class TestOutputFlags:
    """--output and --format override the command's block before it is
    checked: config < --set < flag."""

    @pytest.mark.parametrize("command", ["simulate", "bound", "rate"])
    def test_output_flag_supplies_a_missing_output(self, tmp_path, command):
        path, cfg = write_config(tmp_path)
        del cfg[command]["output"]
        path.write_text(json.dumps(cfg))
        out = tmp_path / "flag.csv"
        assert main([command, "--config", str(path), "--output", str(out)]) == 0
        assert out.read_text().splitlines()[0].startswith(("k,", "n,"))

    def test_format_flag_overrides_the_config(self, tmp_path):
        path, cfg = write_config(tmp_path)
        cfg["rate"]["format"] = "xml"
        path.write_text(json.dumps(cfg))
        assert main(["rate", "--config", str(path), "--format", "json"]) == 0
        assert json.loads((tmp_path / "rate.csv").read_text())["command"] == "rate"

    def test_empty_output_flag_exits_2(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        assert main(["rate", "--config", str(path), "--output", ""]) == 2
        assert "config error: rate.output: must be a non-empty string" in (
            capsys.readouterr().err)
        assert not (tmp_path / "rate.csv").exists()

    def test_unknown_format_flag_exits_2(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        assert main(["rate", "--config", str(path), "--format", "xml"]) == 2
        assert "config error: rate.format: must be one of" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    def test_flag_wins_over_set(self, tmp_path):
        path, _ = write_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["rate", "--config", str(path), "--set", f"rate.output={a}",
                     "--output", str(b)]) == 0
        assert b.exists() and not a.exists()
        assert not (tmp_path / "rate.csv").exists()

    def test_flag_values_are_strings(self, tmp_path, monkeypatch):
        # a flag is never read as JSON, as a --set value is: "7" is a path
        path, _ = write_config(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--config", str(path), "--output", "7"]) == 0
        assert (tmp_path / "7").read_text().startswith("k,x_k,u_k\n")

class TestBoundCommand:
    def test_rows_and_domination(self, tmp_path):
        path, _ = write_config(tmp_path)
        assert main(["bound", "--config", str(path)]) == 0
        lines = (tmp_path / "bound.csv").read_text().splitlines()
        assert lines[0].startswith("n,epsilon,delta,bound,paper_form,empirical")
        assert len(lines) == 3
        for line in lines[1:]:
            parts = line.split(",")
            bound_val = float(parts[3])
            empirical = float(parts[5])
            replicas = int(parts[-1])
            assert parts[4] == ""  # paper_c omitted
            assert empirical <= bound_val + 3.0 * math.sqrt(bound_val / replicas)

    def test_paper_c_column_filled_when_supplied(self, tmp_path):
        path, _ = write_config(tmp_path)
        assert main(["bound", "--config", str(path), "--set",
                     "bound.paper_c=1.0"]) == 0
        lines = (tmp_path / "bound.csv").read_text().splitlines()
        assert lines[1].split(",")[4] != ""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_paper_c_too_small_to_round_gives_inf(self, tmp_path, fmt):
        # 1 - exp(-C eps^2/(1-delta)) rounds to 0 at C = 1e-17, eps = 1
        path, _ = write_config(tmp_path)
        assert main(["bound", "--config", str(path), "--format", fmt, "--set",
                     "bound.paper_c=1e-17", "--set", "bound.epsilon=1"]) == 0
        text = (tmp_path / "bound.csv").read_text()
        if fmt == "json":
            assert [row["paper_form"] for row in json.loads(text)["rows"]] == ["inf", "inf"]
        else:
            assert [line.split(",")[4] for line in text.splitlines()[1:]] == ["inf", "inf"]

    def test_infeasible_epsilon_exits_3(self, tmp_path):
        path, _ = write_config(
            tmp_path,
            bound={"epsilon": 0.01, "n_grid": [50, 80], "replicas": 100,
                   "output": str(tmp_path / "b.csv")},
        )
        assert main(["bound", "--config", str(path)]) == 3

    def test_workers_do_not_change_bytes(self, tmp_path):
        path, _ = write_config(tmp_path)
        main(["bound", "--config", str(path)])
        one = (tmp_path / "bound.csv").read_bytes()
        main(["bound", "--config", str(path), "--workers", "4"])
        four = (tmp_path / "bound.csv").read_bytes()
        assert one == four


class TestRateCommand:
    def test_footer_carries_limit(self, tmp_path):
        path, _ = write_config(tmp_path)
        assert main(["rate", "--config", str(path)]) == 0
        lines = (tmp_path / "rate.csv").read_text().splitlines()
        assert lines[0].split(",")[0] == "n"
        footer = lines[-1].split(",")
        assert footer[0] == "limit"
        assert float(footer[-1]) == -0.5

    def test_oracle_cross_check(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        assert main(["rate", "--config", str(path), "--oracle"]) == 0
        out = capsys.readouterr().out
        assert "oracle n=12" in out and "ok" in out  # n = 12 is enumerable
        assert "oracle n=41" not in out  # n = 41 is not
        header = (tmp_path / "rate.csv").read_text().splitlines()[0]
        assert header == (
            "n,b_n,threshold,replicas,hits,p_hat,ci_low,ci_high,rate,"
            "gaussian_rate,limit_rate"
        )

    @pytest.mark.parametrize("overrides, uncovered", [
        ([], "41"),
        (["rate.target=recursion"], "12, 41"),
        (['noise={"kind": "two_point_adaptive", "sigma": 1.0, "p_min": 0.3, '
          '"p_max": 0.7}'], "12, 41"),
        (["rate.n_grid=[12, 16]"], None),
    ])
    def test_oracle_names_uncovered_rows(self, tmp_path, capsys, overrides, uncovered):
        path, _ = write_config(tmp_path)
        sets = [arg for o in overrides for arg in ("--set", o)]
        assert main(["rate", "--config", str(path), "--oracle", *sets]) == 0
        lines = capsys.readouterr().out.splitlines()
        notes = [line for line in lines if line.startswith("oracle:")]
        if uncovered is None:
            assert notes == []
        else:
            assert notes == [f"oracle: rows n={uncovered} not covered"]
            assert lines[-1] == notes[0]  # after the per-row lines
        assert main(["rate", "--config", str(path), *sets]) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["simulate", "bound"])
    def test_oracle_only_on_rate(self, tmp_path, command):
        path, _ = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(path), "--oracle"])
        assert exc.value.code == 2

    def test_oracle_mismatch_exits_1(self, tmp_path, monkeypatch, capsys):
        import sapprox.cli as cli_mod

        path, _ = write_config(tmp_path)
        monkeypatch.setattr(cli_mod, "binomial_band", lambda *a, **k: (0, 0))
        assert main(["rate", "--config", str(path), "--oracle"]) == 1
        assert "oracle mismatch" in capsys.readouterr().err

    def test_oracle_mismatch_line_after_the_table(self, tmp_path, monkeypatch, capsys):
        import sapprox.cli as cli_mod

        path, _ = write_config(tmp_path)
        out = tmp_path / "rate.csv"
        argv = ["rate", "--config", str(path), "--set", "rate.n_grid=[12, 20]"]
        assert main(argv) == 0
        table = out.read_bytes()
        out.unlink()
        monkeypatch.setattr(cli_mod, "binomial_band", lambda *a, **k: (0, 0))
        capsys.readouterr()
        assert main([*argv, "--oracle"]) == 1
        assert capsys.readouterr().err == (
            "oracle mismatch: "
            "n=12: hits=3472 outside 99.9% band [0, 0] around exact p=0.17626953125; "
            "n=20: hits=3120 outside 99.9% band [0, 0] around exact p=0.15364646911621094\n")
        assert out.read_bytes() == table  # the whole table, written before the exit

    def test_workers_do_not_change_bytes(self, tmp_path):
        path, _ = write_config(tmp_path)
        main(["rate", "--config", str(path)])
        one = (tmp_path / "rate.csv").read_bytes()
        main(["rate", "--config", str(path), "--workers", "4"])
        four = (tmp_path / "rate.csv").read_bytes()
        assert one == four

    def test_json_format_rates(self, tmp_path):
        path, _ = write_config(tmp_path)
        out = tmp_path / "rate.json"
        assert main(["rate", "--config", str(path), "--output", str(out),
                     "--format", "json"]) == 0
        doc = json.loads(out.read_text())
        assert doc["limit_rate"] == -0.5
        assert len(doc["rows"]) == 2
        assert all(r["rate"] <= 0.0 or r["rate"] == "-inf" for r in doc["rows"])


class TestSelftestCommand:
    def test_fresh_build_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "FAIL" not in out

    def test_reports_identical_twice(self, capsys):
        main(["selftest"])
        first = capsys.readouterr().out
        main(["selftest"])
        second = capsys.readouterr().out
        assert first == second

    def test_corrupted_beta_named_failure(self, monkeypatch, capsys):
        real_beta = weights.beta

        def flipped(c, k, n):
            return -real_beta(c, k, n)

        monkeypatch.setattr(weights, "beta", flipped)
        assert main(["selftest"]) == 1
        captured = capsys.readouterr()
        assert "weights.sandwich: FAIL" in captured.out
        assert "weights.sandwich" in captured.err

    def test_suite_names_stable(self):
        names = [name for name, _ in selftest_mod.SUITES]
        assert names == [
            "weights.sandwich",
            "engine.decomposition",
            "engine.second_moment",
            "bounds.azuma_enumeration",
        ]


class TestCommandTable:
    def test_a_bad_row_is_named(self, monkeypatch):
        import sapprox.cli as cli_mod

        bad = {"--config": dict(help="a second --config")}
        monkeypatch.setitem(cli_mod._COMMANDS, "bad", (cli_mod._cmd_rate, bad))
        # every command's parser is built, so a good command meets the bad row
        with pytest.raises(ValueError, match="row 'bad' of cli._COMMANDS: .*--config"):
            main(["simulate", "--help"])
