"""Runs one sapprox command in this fresh interpreter and reports its timings.

    python3 perfbench/child.py RESULT_JSON TRACE ARG...

ARG... is the sapprox command line (`rate --config exp.json ...`).  The
child imports sapprox.cli, parses the config the way the CLI does (the end
of set-up), then runs the command in process through sapprox.cli.main with
its standard output captured.  With TRACE=1 the per-layer spans are
recorded as well.  The report goes to RESULT_JSON; `ready` is a
time.monotonic() reading, which is comparable between processes.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> None:
    result_path, trace, *argv = sys.argv[1:]
    from sapprox import cli
    from sapprox.config import load_raw, parse_config

    parse_config(load_raw(argv[argv.index("--config") + 1]), command=argv[0])
    ready = time.monotonic()

    tracer = None
    if trace == "1":
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
    stdout = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main(argv)
    wall_s = time.perf_counter() - start

    usage_self = resource.getrusage(resource.RUSAGE_SELF)
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN)
    report = {
        "rc": rc,
        "ready": ready,
        "wall_s": wall_s,
        "peak_rss_mb": (usage_self.ru_maxrss + usage_children.ru_maxrss) / 1024.0,
        "stdout": stdout.getvalue(),
    }
    if tracer is not None:
        report["layers"] = layer_metrics(tracer.spans)
    Path(result_path).write_text(json.dumps(report))


if __name__ == "__main__":
    main()
