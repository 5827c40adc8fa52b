"""Batch command-line front end.

Subcommands:
  simulate   run one recorded path, write k,x_k,u_k rows
  bound      explicit exponential bound vs empirical tail over an n-grid
  rate       moderate-deviation rate curve over an n-grid
  selftest   fast invariant suites, exit 0 iff all pass

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
from sapprox.engine import count_tail_hits_grid, envelope_bound, simulate
from sapprox.mdp import (
    ENUMERATION_MAX_N,
    binomial_band,
    clopper_pearson,
    exact_tail_enumeration,
    rate_curve,
)
from sapprox.model import Rademacher

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
    so a failed write leaves any earlier file intact and nothing truncated."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            write(fh)
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


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


def _resolve_output(cfg: ExperimentConfig, args) -> tuple[Optional[Path], str]:
    out = args.output or cfg.block.get("output")
    fmt = args.format or cfg.block.get("format") or "csv"
    return (Path(out) if out else None, fmt)


def _cmd_simulate(cfg: ExperimentConfig, args) -> int:
    n = cfg.block["n"]
    record = cfg.block.get("record", True)
    out, fmt = _resolve_output(cfg, args)
    _, env_sup = envelope_bound(cfg.spec, n)
    if record:
        traj = simulate(cfg.spec, n, cfg.seed, record=True)
        if fmt == "json":
            rows = [{"k": 0, "x_k": float(traj.xs[0]), "u_k": None}]
            rows += [
                {"k": k, "x_k": float(traj.xs[k]), "u_k": float(traj.us[k - 1])}
                for k in range(1, len(traj.xs))
            ]
            _write_table(out, fmt, "simulate", ["k", "x_k", "u_k"], rows)
        else:
            _write_atomic(out, traj.write_csv)
        final_dev = traj.final_deviation
    else:
        final_dev = simulate(cfg.spec, n, cfg.seed, record=False)
    print(f"final_deviation={_fmt(float(final_dev))} envelope_F={_fmt(env_sup)}")
    return EXIT_OK


def _cmd_bound(cfg: ExperimentConfig, args) -> int:
    block = cfg.block
    epsilon = float(block["epsilon"])
    n_grid = list(block["n_grid"])
    replicas = int(block["replicas"])
    paper_c = block.get("paper_c")
    out, fmt = _resolve_output(cfg, args)

    choice = select_delta(cfg.spec, epsilon, n_probe=max(n_grid))
    feasible_ns = [
        n for n in n_grid if choice.feasible and n >= choice.feasible_from
    ]
    if not feasible_ns:
        raise InfeasibleError(
            f"margin condition infeasible for every n in the grid "
            f"(feasible_from={choice.feasible_from}, probed to {choice.n_probe})"
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
            if choice.feasible and n >= choice.feasible_from
            else None
        )
        paper_val = (
            paper_form_bound(float(paper_c), epsilon, choice.delta, n)
            if paper_c is not None
            else None
        )
        p_hat = result.hits / replicas
        ci_low, ci_high = clopper_pearson(result.hits, replicas)
        rows.append(
            {
                "n": n,
                "epsilon": epsilon,
                "delta": choice.delta,
                "bound": bound_val,
                "paper_form": paper_val,
                "empirical": p_hat,
                "ci_low": ci_low,
                "ci_high": ci_high,
                "replicas": replicas,
            }
        )
    _write_table(out, fmt, "bound", columns, rows)
    return EXIT_OK


def _cmd_rate(cfg: ExperimentConfig, args) -> int:
    block = cfg.block
    target = block["target"]
    replicas = int(block["replicas"])
    out, fmt = _resolve_output(cfg, args)

    curve = rate_curve(
        target, cfg.spec, cfg.schedule, replicas, cfg.seed, workers=args.workers
    )
    columns = [
        "n", "b_n", "threshold", "replicas", "hits", "p_hat", "ci_low",
        "ci_high", "rate", "gaussian_rate", "limit_rate",
    ]
    oracle_failures = []
    rows = []
    for pt in curve.points:
        if (
            args.oracle
            and target == "weighted_sum"
            and isinstance(cfg.spec.noise, Rademacher)
            and pt.n <= ENUMERATION_MAX_N
        ):
            exact = float(exact_tail_enumeration(cfg.spec, pt.n, pt.threshold))
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
        rows.append(
            {
                "n": pt.n,
                "b_n": pt.b_n,
                "threshold": pt.threshold,
                "replicas": pt.replicas,
                "hits": pt.hits,
                "p_hat": pt.p_hat,
                "ci_low": pt.ci_low,
                "ci_high": pt.ci_high,
                "rate": pt.rate,
                "gaussian_rate": pt.reference_rate,
                "limit_rate": curve.limit_rate,
            }
        )
    if fmt != "json":
        # footer row carrying the limit, marked in the n column
        rows.append({"n": "limit", "limit_rate": curve.limit_rate})
    _write_table(
        out, fmt, "rate", columns, rows, extra={"limit_rate": curve.limit_rate}
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
        p.add_argument("--output", default=None, help="override output path")
        p.add_argument("--format", default=None, choices=["csv", "json"])
        p.add_argument("--workers", type=int, default=1,
                       help="max parallel workers for replica blocks")
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
        cfg = parse_config(raw, command=args.command)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except json.JSONDecodeError as exc:
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
