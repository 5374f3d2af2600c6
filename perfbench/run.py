"""sympow benchmark: time `sympow analyze` jobs from outside the package.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --selftest

Run from the root of a source checkout; the jobs import `sympow` from its
`src/`.  Every job runs in a fresh interpreter (job.py) with BLAS/OpenMP
threads pinned to 1, `--jobs 1` and a fresh cache directory.  One process
drives the load as a closed loop over min(2, nproc) lanes: a lane starts its
next job when its last one ends, until the run's seconds are up.  In a traced run one lane runs traced
jobs and the other untraced ones, for the overhead ratio.

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
from tracer.py; the last line of standard output is the result as JSON.
Each job passes the gate in workloads.py or counts as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import tracer
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 8
LANES = min(2, os.cpu_count() or 1)
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Runner:
    """Launches job.py children inside one work directory and reaps them."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.env = dict(os.environ)
        for var in PINNED:
            self.env[var] = "1"
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
        self.live: dict[int, dict] = {}
        self.attempted = 0
        self.failed = 0

    def start(self, config: dict, cache_dir: str | None = None, trace: bool = False,
              setup_only: bool = False) -> dict:
        self.attempted += 1
        tag = os.path.join(self.workdir, f"job{self.attempted}")
        with open(tag + ".config.json", "w") as fh:
            json.dump(config, fh)
        cmd = [sys.executable, os.path.join(HERE, "job.py"), tag + ".result.json"]
        if trace:
            cmd += ["--trace", tag + ".spans.json"]
        if setup_only:
            cmd.append("--setup-only")
        cmd += ["--", "analyze", "--config", tag + ".config.json", "--jobs", "1",
                "--output", tag + ".report.json"]
        if cache_dir:
            cmd += ["--cache-dir", cache_dir]
        with open(tag + ".log", "w") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                                    cwd=self.workdir)
        job = {"proc": proc, "tag": tag, "spawned": spawned, "trace": trace,
               "cache_dir": cache_dir}
        self.live[proc.pid] = job
        return job

    def wait_any(self) -> dict:
        """Reap whichever child ends first: its timings, resource use and report."""
        pid, status, usage = os.wait4(-1, 0)
        job = self.live.pop(pid)
        job["proc"].returncode = os.waitstatus_to_exitcode(status)
        tag = job["tag"]
        rec = {}
        if os.path.exists(tag + ".result.json"):
            with open(tag + ".result.json") as fh:
                rec = json.load(fh)
        job.update(exit=job["proc"].returncode, rec=rec, rss_mb=usage.ru_maxrss / 1024.0,
                   cpu_s=usage.ru_utime + usage.ru_stime)
        if "config_at" in rec:
            job["setup_s"] = rec["config_at"] - job["spawned"]
        if "job_s" in rec:
            job["job_s"] = rec["job_s"]
        if os.path.exists(tag + ".report.json"):
            with open(tag + ".report.json") as fh:
                job["text"] = fh.read()
        if job["trace"] and os.path.exists(tag + ".spans.json"):
            with open(tag + ".spans.json") as fh:
                job["spans"] = json.load(fh)
        return job

    def run(self, config: dict, **kw) -> dict:
        self.start(config, **kw)
        return self.wait_any()

    def check(self, job: dict, config: dict, expected: str | None = None,
              extra: list[str] = ()) -> bool:
        """Apply the gate; a failed job is counted and its reasons printed."""
        problems = list(extra)
        source = job["rec"].get("sympow_file")
        if source and not source.startswith(SRC + os.sep):
            problems.append(f"imported sympow from {source}")
        problems += wl.gate(config, job["exit"], job.get("text"), expected)
        if problems:
            self.failed += 1
            print(f"FAILED job: {'; '.join(problems)}", file=sys.stderr)
            with open(job["tag"] + ".log") as fh:
                sys.stderr.write(fh.read()[-2000:])
        return not problems

    def stop_all(self) -> None:
        for job in self.live.values():
            job["proc"].kill()
            job["proc"].wait()
        self.live.clear()


class Workload:
    """One workload at one seed: its config and expected digest.

    Every job of a run must reproduce the first report byte for byte, which
    is what shows that tracing changes no output.
    """

    def __init__(self, runner: Runner, base: str, seed: int):
        self.runner = runner
        self.config = wl.job_config(base, seed)
        self.expected = wl.DIGESTS[base] if seed == wl.DEFAULT_SEED else None
        self.reference = None

    def start(self, trace: bool = False) -> dict:
        cache = tempfile.mkdtemp(prefix="cache-", dir=self.runner.workdir)
        return self.runner.start(self.config, cache_dir=cache, trace=trace)

    def finish(self, job: dict) -> bool:
        """Gate a reaped job and drop its cache."""
        shutil.rmtree(job["cache_dir"])
        extra = []
        if self.reference is None:
            self.reference = job.get("text")
        elif job.get("text") != self.reference:
            extra.append("report differs from the run's first report")
        return self.runner.check(job, self.config, self.expected, extra)

    def lanes(self, seconds: float, kinds: list[bool]) -> list[dict]:
        """Run jobs on LANES lanes until `seconds` pass and each kind started.

        `kinds` lists the trace flags to rotate through: lane i's k-th job is
        kinds[(i + k * LANES) % len(kinds)], so with two lanes and two kinds
        each lane keeps one kind.  Returns the reaped jobs in finish order.
        """
        started = time.monotonic()
        lane_of, launched, seen = {}, [0] * LANES, set()

        def next_kind(lane: int) -> bool:
            return kinds[(lane + launched[lane] * LANES) % len(kinds)]

        def launch(lane: int) -> None:
            seen.add(next_kind(lane))
            lane_of[self.start(trace=next_kind(lane))["proc"].pid] = lane
            launched[lane] += 1

        for lane in range(LANES):
            launch(lane)
        done = []
        while self.runner.live:
            job = self.runner.wait_any()
            self.finish(job)
            done.append(job)
            lane = lane_of.pop(job["proc"].pid)
            if time.monotonic() - started < seconds or next_kind(lane) not in seen:
                launch(lane)
        return done


def tail(values: list[float]) -> str:
    """The highest percentile that still has at least ten samples above it."""
    n = len(values)
    if n < 11:
        return "no tail percentile (fewer than 11 samples)"
    pct = int(100 * (n - 10) / n)
    rank = max(1, -(-pct * n // 100))
    return f"p{pct} {sorted(values)[rank - 1]:.6g}"


def measure(w: Workload, seconds: float) -> dict:
    """Setup probes, then untraced jobs for `seconds`; the end-to-end metrics."""
    setups = []
    for _ in range(SETUP_PROBES):
        probe = w.runner.run(w.config, setup_only=True)
        if probe["exit"] != 0 or "setup_s" not in probe:
            raise RuntimeError(f"setup probe failed; see {probe['tag']}.log")
        setups.append(probe["setup_s"])
    rec = probe["rec"]
    print(f"machine: nproc={os.cpu_count()} lanes={LANES} python={sys.version.split()[0]} "
          f"numpy={rec.get('numpy')} blas={rec.get('blas')} "
          f"threads: {' '.join(f'{v}=1' for v in PINNED)}")
    jobs = [j for j in w.lanes(seconds, [False]) if "job_s" in j]
    if not jobs:
        raise RuntimeError("no job finished")
    series = {
        "job_s": ([j["job_s"] for j in jobs], "s"),
        "setup_s": (setups, "s"),
        "peak_rss_mb": ([j["rss_mb"] for j in jobs], "MB"),
        "cpu_s": ([j["cpu_s"] for j in jobs], "s"),
    }
    for name, (values, unit) in series.items():
        print(f"{name}: median {statistics.median(values):.6g} {unit}, {tail(values)}, "
              f"n={len(values)}")
    return {name: {"value": statistics.median(values), "unit": unit}
            for name, (values, unit) in series.items()}


def trace_layers(w: Workload, seconds: float) -> dict:
    """Traced and untraced jobs side by side for `seconds`; the per-layer metrics."""
    jobs = w.lanes(seconds, [False, True])
    plain = [j["job_s"] for j in jobs if not j["trace"] and "job_s" in j]
    spanned = [j for j in jobs if j["trace"] and "spans" in j and "job_s" in j]
    if not plain or not spanned:
        raise RuntimeError("no traced and untraced job pair finished")
    layers: dict[str, tuple[list, str]] = {}
    for j in spanned:
        cache = j["rec"].get("cache", {})
        for name, (value, unit) in tracer.layer_metrics(j["spans"], cache).items():
            layers.setdefault(name, ([], unit))[0].append(value)
    metrics = {name: {"value": statistics.median(vals), "unit": unit}
               for name, (vals, unit) in layers.items()}
    ratio = statistics.median(j["job_s"] for j in spanned) / statistics.median(plain)
    metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    return metrics


def selftest(runner: Runner) -> int:
    """Smoke mode: tiny jobs through the same machinery, then the checks."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ok = True

    def verdict(cond: bool, what: str) -> None:
        nonlocal ok
        ok = ok and cond
        print(f"{'PASS' if cond else 'FAIL'} {what}")

    layer_names = {m["name"] for m in bench["per_layer"]}
    for base in ("tiny_s3", "koszul_p2_gf4"):
        w = Workload(runner, base, wl.DEFAULT_SEED)
        failed = runner.failed
        metrics = trace_layers(w, 0.0)
        verdict(runner.failed == failed, f"{base}: traced and untraced jobs pass the gate, "
                "recorded digest and byte-identical reports included")
        good = wl.DIGESTS[base]
        bad = good[:-1] + ("1" if good.endswith("0") else "0")
        verdict(not wl.gate(w.config, 0, w.reference, good)
                and bool(wl.gate(w.config, 0, w.reference, bad)),
                f"{base}: a tampered digest is reported as a failure")
        verdict(set(metrics) == layer_names, f"{base}: every per-layer metric is emitted "
                f"(missing {sorted(layer_names - set(metrics))})")
    verdict(set(wl.WORKLOADS) == {x["name"] for x in bench["workloads"]},
            "the workloads match BENCHMARK.json")
    metrics = measure(Workload(runner, "tiny_s3", 1), 0.5)
    verdict(set(metrics) == {m["name"] for m in bench["end_to_end"]}
            and all(m["value"] > 0 for m in metrics.values()),
            "every end-to-end metric is emitted and nonzero")
    verdict(runner.failed == 0, f"no job failed ({runner.failed} of {runner.attempted})")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the smoke checks on tiny configs instead")
    args = ap.parse_args(argv)
    if not args.selftest and not args.workload:
        ap.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "sympow", "__init__.py")):
        print(f"error: no sympow sources under {SRC}", file=sys.stderr)
        return 2
    # a terminated run still stops and reaps its jobs in the `finally` below
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    runner = Runner(workdir)
    try:
        if args.selftest:
            return selftest(runner)
        w = Workload(runner, args.workload, args.seed)
        metrics = (trace_layers if args.trace else measure)(w, args.seconds)
    finally:
        runner.stop_all()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
