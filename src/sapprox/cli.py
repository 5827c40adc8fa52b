"""Batch command-line front end.

Subcommands:
  simulate   run one recorded path, write k,x_k,u_k rows
  bound      explicit exponential bound vs empirical tail over an n-grid
  rate       moderate-deviation rate curve over an n-grid
  selftest   fast invariant suites, exit 0 iff all pass

--output and --format override the command's config block (config <
--set < flag) before config.parse_config checks it; mdp.oracle_tail decides
which rows the exact oracle covers.

All randomness derives from the single seed in the config file; output is
byte-identical across runs and worker counts.  Exit codes: 0 success,
1 I/O or runtime failure, 2 config validation failure, 3 infeasibility.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from pathlib import Path
from typing import Optional

from sapprox import selftest as selftest_mod
from sapprox.bounds import exp_inequality_bound, paper_form_bound, select_delta
from sapprox.config import (
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    load_raw,
    parse_config,
)
from sapprox.engine import count_tail_hits_grid, envelope_bound, final_deviation, simulate
from sapprox.mdp import binomial_band, clopper_pearson, oracle_tail, rate_curve

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3


class InfeasibleError(Exception):
    pass


class OracleMismatch(Exception):
    pass


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _json_safe(v):
    # keep emitted JSON standard: non-finite floats become strings
    if isinstance(v, float) and not math.isfinite(v):
        return format(v, ".17g")
    return v


def _write_atomic(path: Path, write) -> None:
    """write(fh) into a temporary file beside path, then rename it over path,
    so a failed write leaves any earlier file intact and nothing truncated.
    An OS error names path, never the temporary file."""
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                write(fh)
            mask = os.umask(0)  # reading the umask means setting it
            os.umask(mask)
            os.chmod(tmp, 0o666 & ~mask)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        if exc.errno is None:
            raise
        raise OSError(exc.errno, exc.strerror, str(path)) from None


def _write_table(path: Path, fmt: str, command: str, columns: list[str],
                 rows: list[dict], extra: Optional[dict] = None) -> None:
    if fmt == "json":
        doc = {
            "schema_version": 1,
            "command": command,
            "columns": columns,
            "rows": [{k: _json_safe(v) for k, v in row.items()} for row in rows],
        }
        if extra:
            doc.update({k: _json_safe(v) for k, v in extra.items()})
        payload = json.dumps(doc, sort_keys=True) + "\n"
    else:
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_fmt(row.get(c)) for c in columns))
        payload = "\n".join(lines) + "\n"
    _write_atomic(path, lambda fh: fh.write(payload))


def _cmd_simulate(cfg: ExperimentConfig, args) -> int:
    n = cfg.block["n"]
    _, env_sup = envelope_bound(cfg.spec, n)
    if cfg.block["record"]:
        traj = simulate(cfg.spec, n, cfg.seed)
        us = [None, *map(float, traj.us)]  # no noise enters X_0
        rows = [{"k": k, "x_k": float(x), "u_k": u}
                for k, (x, u) in enumerate(zip(traj.xs, us))]
        _write_table(Path(cfg.block["output"]), cfg.block["format"], "simulate",
                     ["k", "x_k", "u_k"], rows)
        final_dev = traj.final_deviation
    else:
        final_dev = final_deviation(cfg.spec, "recursion", n, cfg.seed)
    print(f"final_deviation={_fmt(float(final_dev))} envelope_F={_fmt(env_sup)}")
    return EXIT_OK


def _cmd_bound(cfg: ExperimentConfig, args) -> int:
    block = cfg.block
    epsilon, n_grid, replicas, paper_c = (
        block["epsilon"], block["n_grid"], block["replicas"], block["paper_c"])

    choice = select_delta(cfg.spec, epsilon, n_probe=max(n_grid))
    if not choice.feasible:
        raise InfeasibleError(
            f"margin condition infeasible for every n in the grid "
            f"(probed to {choice.n_probe})"
        )

    columns = [
        "n", "epsilon", "delta", "bound", "paper_form",
        "empirical", "ci_low", "ci_high", "replicas",
    ]
    results = count_tail_hits_grid(
        cfg.spec, "recursion", n_grid, [epsilon] * len(n_grid), cfg.seed, replicas,
        inclusive=True, workers=args.workers,
    )
    rows = []
    for n, result in zip(n_grid, results):
        bound_val = (
            exp_inequality_bound(cfg.spec, epsilon, n, choice).value
            if n >= choice.feasible_from
            else None
        )
        paper_val = (
            paper_form_bound(paper_c, epsilon, choice.delta, n)
            if paper_c is not None
            else None
        )
        ci_low, ci_high = clopper_pearson(result.hits, replicas)
        rows.append(dict(zip(columns, (
            n, epsilon, choice.delta, bound_val, paper_val,
            result.hits / replicas, ci_low, ci_high, replicas,
        ))))
    _write_table(Path(block["output"]), block["format"], "bound", columns, rows)
    return EXIT_OK


def _cmd_rate(cfg: ExperimentConfig, args) -> int:
    target, fmt = cfg.block["target"], cfg.block["format"]

    curve = rate_curve(
        target, cfg.spec, cfg.schedule, cfg.block["replicas"], cfg.seed,
        workers=args.workers,
    )
    columns = [
        "n", "b_n", "threshold", "replicas", "hits", "p_hat", "ci_low",
        "ci_high", "rate", "gaussian_rate", "limit_rate",
    ]
    oracle_failures = []
    uncovered = []
    rows = []
    for pt in curve.points:
        tail = oracle_tail(cfg.spec, target, pt.n, pt.threshold) if args.oracle else None
        if args.oracle and tail is None:
            uncovered.append(str(pt.n))
        if tail is not None:
            exact = float(tail)
            lo, hi = binomial_band(exact, pt.replicas, confidence=0.999)
            ok = lo <= pt.hits <= hi
            print(
                f"oracle n={pt.n}: exact_p={_fmt(exact)} hits={pt.hits} "
                f"band=[{lo}, {hi}] {'ok' if ok else 'MISMATCH'}"
            )
            if not ok:
                oracle_failures.append(
                    f"n={pt.n}: hits={pt.hits} outside 99.9% band [{lo}, {hi}] "
                    f"around exact p={exact}"
                )
        rows.append(dict(zip(columns, (
            pt.n, pt.b_n, pt.threshold, pt.replicas, pt.hits, pt.p_hat, pt.ci_low,
            pt.ci_high, pt.rate, pt.reference_rate, curve.limit_rate,
        ))))
    if uncovered:
        # "oracle:" rather than "oracle ", which starts a per-row line
        print(f"oracle: rows n={', '.join(uncovered)} not covered")
    if fmt != "json":
        # footer row carrying the limit, marked in the n column
        rows.append({"n": "limit", "limit_rate": curve.limit_rate})
    _write_table(
        Path(cfg.block["output"]), fmt, "rate", columns, rows,
        extra={"limit_rate": curve.limit_rate},
    )
    if oracle_failures:
        raise OracleMismatch("; ".join(oracle_failures))
    return EXIT_OK


def _cmd_selftest(args) -> int:
    results = selftest_mod.run_suites()
    for res in results:
        print(f"{res.name}: {'PASS' if res.passed else 'FAIL'}")
    failed = [r for r in results if not r.passed]
    if failed:
        first = failed[0]
        print(f"selftest failed: {first.name}: {first.detail}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sapprox",
        description="Robbins-Monro recursion experiments: simulation, "
        "exponential bounds and moderate-deviation rate curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "bound", "rate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment JSON file")
        p.add_argument("--output", help=f"override {name}.output")
        p.add_argument("--format", help=f"override {name}.format")
        p.add_argument("--workers", type=int, default=1,
                       help="max parallel workers for replica blocks")
        if name == "rate":
            p.add_argument("--oracle", action="store_true",
                           help="cross-check Monte Carlo rows against exact "
                           "enumeration where available")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config field")
    sub.add_parser("selftest")
    return parser


_HANDLERS = {"simulate": _cmd_simulate, "bound": _cmd_bound, "rate": _cmd_rate}


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "selftest":
        return _cmd_selftest(args)
    try:
        raw = load_raw(args.config)
        raw = apply_overrides(raw, args.overrides)
        block = raw.get(args.command)
        if isinstance(block, dict):  # otherwise parse_config reports it
            for key in ("output", "format"):  # flags override, as plain strings
                if getattr(args, key) is not None:
                    block[key] = getattr(args, key)
        cfg = parse_config(raw, command=args.command)
    except OSError as exc:  # missing, a directory, unreadable
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConfigError as exc:
        for issue in exc.issues:
            print(f"config error: {issue}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.workers < 1:
        print("config error: workers: must be >= 1", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        return _HANDLERS[args.command](cfg, args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OracleMismatch as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # runtime failures map to exit 1, never a traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
