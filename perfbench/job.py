"""Run one `sympow analyze` job in this fresh interpreter and record its timings.

    python3 job.py RESULT.json [--trace SPANS.json] [--setup-only] -- ANALYZE-ARGS...

The job goes through `sympow.cli.main`, as the `sympow` entry point does.
Timestamps are `time.monotonic()`, which is system-wide, so the launching
process can subtract its own spawn time from `config_at`.  `--setup-only`
stops right after the config is parsed; `--trace` wraps the layers first (see
tracer.py) and writes the spans when the job ends.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, job_args = argv[:split], argv[split + 1:]
    result_path = own[0]
    spans_path = own[own.index("--trace") + 1] if "--trace" in own else None
    setup_only = "--setup-only" in own

    import numpy
    import sympow.cli as cli
    from sympow import pipeline as pl

    rec: dict = {"sympow_file": os.path.abspath(sys.modules["sympow"].__file__),
                 "numpy": numpy.__version__}

    def finish(code: int) -> int:
        with open(result_path, "w") as fh:
            json.dump(rec, fh)
        return code

    load_config = pl.load_config

    def timed_load_config(path):
        cfg = load_config(path)
        rec["config_at"] = time.monotonic()
        if setup_only:
            try:
                blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
                rec["blas"] = f"{blas.get('name')} {blas.get('version')}"
            except (TypeError, KeyError):  # numpy < 1.25 prints instead
                rec["blas"] = "unknown"
            raise SystemExit(finish(0))
        return cfg

    pl.load_config = timed_load_config

    spans = None
    if spans_path:
        import tracer
        spans = tracer.Tracer()
        tracer.install(spans)

    emit = pl.emit

    def timed_emit(report, fmt, path):
        written = emit(report, fmt, path)
        rec["emitted_at"] = time.monotonic()
        rec["cache"] = report.get("volatile", {}).get("cache", {})
        return written

    pl.emit = timed_emit
    code = cli.main(job_args)
    if "emitted_at" in rec:
        rec["job_s"] = rec["emitted_at"] - rec["config_at"]
    if spans is not None:
        spans.dump(spans_path)
    return finish(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
