"""End-to-end benchmark of the prodideals command line.

    python3 perfbench/run.py --workload {enumerate,verify,batch} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  The workload's job list is generated from the
seed (``gen.py``); each job is one fresh ``prodideals`` process.  A single
client runs the jobs one after another (closed loop, one child at a time)
and repeats the whole list while the next pass still fits in ``--seconds``.
Every output is checked: exit code, the workload's mathematical check, the
same stdout bytes on every pass and, for the default seed, the digests
stored in ``digests.json``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced passes with passes whose jobs run under ``tracer.py`` and reports
the per-layer metrics.  The last line of stdout is one JSON object.

Reported times are scaled to the host's speed with a reference process
that does not use prodideals (see ``REFERENCE_CODE``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import gen      # noqa: E402
import tracer   # noqa: E402

DEFAULT_SEED = 0
DIGESTS = os.path.join(HERE, "digests.json")
#: set-up samples taken before the first pass; one more follows every pass,
#: so the samples spread over the whole run
SETUP_FIRST = 5
JOB_TIMEOUT_S = 60
SETUP_CODE = "import prodideals.cli as cli; cli.build_parser()"
#: The host's speed drifts by tens of percent over minutes when neighbouring
#: load comes and goes, and CPU time drifts with wall time.  So a reference
#: process runs before every untraced job: like a job it starts an
#: interpreter, imports many modules and computes briefly, but it uses only
#: the standard library, so no change to prodideals moves it.  Each pass time
#: is scaled by REFERENCE_S / (median reference time in that pass), and each
#: set-up sample by REFERENCE_S / (median reference time of the run): the
#: reported times are seconds on a host where the reference takes REFERENCE_S.
REFERENCE_CODE = ("import argparse, asyncio, decimal, email.parser, fractions, http.client, "
                  "json, logging, unittest, xml.etree.ElementTree\n"
                  "sum(i * i % 97 for i in range(50000))")
REFERENCE_S = 0.1
ENTRY_CODE = "import sys; from prodideals.cli import main; sys.exit(main(sys.argv[1:]))"


class Runner:
    """Spawns one child at a time and records wall time and peak RSS."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

    def spawn(self, cmd):
        """(seconds, exit code, stdout, peak RSS in MB, stderr)."""
        err_path = os.path.join(self.workdir, "stderr.txt")
        with open(err_path, "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
                # wait4 gives this child's own rusage; RUSAGE_CHILDREN would
                # be a running maximum over every child so far
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                proc.stdout.close()
            elapsed = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode(errors="replace")
        return elapsed, proc.returncode, out, usage.ru_maxrss / 1024, stderr


def percentile_summary(values):
    """Median, the highest percentile with at least ten samples above it,
    and the sample count."""
    values = sorted(values)
    n = len(values)
    text = f"median {statistics.median(values):.4f}"
    if n >= 11:
        pct = 100 * (n - 10) // n
        text += f", p{pct} {values[max(0, -(-pct * n // 100) - 1)]:.4f}"
    return text + f", n={n}"


class Bench:
    def __init__(self, args, workdir):
        self.args = args
        self.runner = Runner(workdir)
        self.workdir = workdir
        self.jobs, self.info = gen.WORKLOADS[args.workload](random.Random(args.seed), workdir)
        stored = {}
        if args.seed == DEFAULT_SEED and not args.write_digests and os.path.exists(DIGESTS):
            with open(DIGESTS, encoding="utf-8") as fh:
                stored = json.load(fh).get(args.workload, {})
        self.stored = stored
        self.digests = {}         # job name -> digest of its first output
        self.attempted = 0
        self.failures = []
        self.job_seconds = []
        self.peak_rss = 0.0

    def timed(self, code):
        elapsed, rc, _, _, err = self.runner.spawn([sys.executable, "-c", code])
        if rc != 0:
            raise SystemExit(f"helper process failed (exit {rc}): {err.strip()[-500:]}")
        return elapsed

    def run_pass(self, traced, pass_no):
        """(seconds, span records, reference seconds) of one pass."""
        total = 0.0
        records, refs = [], []
        for job in self.jobs:
            if traced:
                span_path = os.path.join(self.workdir, "spans.json")
                cmd = [sys.executable, os.path.join(HERE, "tracer.py"), span_path,
                       f"{pass_no}:{job.name}"] + job.argv
            else:
                refs.append(self.timed(REFERENCE_CODE))
                cmd = [sys.executable, "-c", ENTRY_CODE] + job.argv
            elapsed, rc, out, rss, err = self.runner.spawn(cmd)
            total += elapsed
            self.attempted += 1
            problem = self.check(job, rc, out, err)
            if problem:
                self.failures.append(f"{job.name} ({' '.join(job.argv)}): {problem}")
            if not traced:
                self.job_seconds.append(elapsed)
                self.peak_rss = max(self.peak_rss, rss)
            elif os.path.exists(span_path):     # absent if the job crashed
                with open(span_path, encoding="utf-8") as fh:
                    records.append(json.load(fh))
                os.remove(span_path)
        return total, records, refs

    def check(self, job, rc, out, err):
        if rc != 0:
            return f"exit code {rc}: {err.strip()[-300:]}"
        digest = hashlib.sha256(out).hexdigest()
        first = self.digests.setdefault(job.name, digest)
        if digest != first:
            return "stdout differs from an earlier pass"
        if self.stored and self.stored.get(job.name) != digest:
            return "stdout differs from the digest stored for the default seed"
        try:
            return job.check(out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable report: {exc!r}"

    def measure(self):
        """Passes until the next one would overrun --seconds (at least one).
        With tracing each round is an untraced pass then a traced pass.
        Returns (set-up seconds, untraced passes as (seconds, median
        reference seconds), traced passes as (seconds, layer metrics))."""
        self.timed(SETUP_CODE)         # warms the file cache; not a sample
        setup = [self.timed(SETUP_CODE) for _ in range(SETUP_FIRST)]
        rounds, plain, traced = [], [], []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start + statistics.median(rounds) \
                <= self.args.seconds:
            t0 = time.perf_counter()
            seconds, _, refs = self.run_pass(False, len(rounds))
            plain.append((seconds, statistics.median(refs)))
            if self.args.trace:
                seconds, records, _ = self.run_pass(True, len(rounds))
                if records:
                    traced.append((seconds, tracer.layer_metrics(records)))
            setup.append(self.timed(SETUP_CODE))
            rounds.append(time.perf_counter() - t0)
        return setup, plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="store this run's output digests for the default seed")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "prodideals", "cli.py")):
        print(f"error: no prodideals sources under {SRC}", file=sys.stderr)
        return 1

    workdir = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        bench = Bench(args, workdir)
        setup, plain, traced = bench.measure()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    failed = len(bench.failures)
    reference = statistics.median(ref for _, ref in plain)
    wall = [seconds * REFERENCE_S / ref for seconds, ref in plain]
    setup_scaled = [seconds * REFERENCE_S / reference for seconds in setup]
    for line in bench.failures[:20]:
        print(f"FAILED {line}")
    print(f"workload {args.workload}, seed {args.seed}: {len(bench.jobs)} jobs per pass, "
          f"{len(plain)} passes, {bench.attempted} jobs run"
          + "".join(f", {k} {v}" for k, v in sorted(bench.info.items())))
    print(f"reference    s    median {reference:.4f}, scale {REFERENCE_S / reference:.4f}")
    print(f"setup_s      s    {percentile_summary(setup_scaled)}")
    print(f"wall_s       s    {percentile_summary(wall)}")
    print(f"  unscaled: setup {percentile_summary(setup)}; "
          f"wall {percentile_summary([seconds for seconds, _ in plain])}; "
          f"job {percentile_summary(bench.job_seconds)}")
    print(f"peak_rss_mb  MB   {bench.peak_rss:.1f}")
    print(f"failed_ratio ratio {failed / bench.attempted:.4f} ({failed}/{bench.attempted})")

    if args.trace and traced:
        layers = {name: statistics.median(m[name] for _, m in traced)
                  for name in tracer.PER_LAYER}
        layers["trace.overhead_ratio"] = statistics.median(s for s, _ in traced) / \
            statistics.median(seconds for seconds, _ in plain)
        units = dict({k: u for k, (u, _) in tracer.PER_LAYER.items()},
                     **{"trace.overhead_ratio": "ratio"})
        for name, value in layers.items():
            print(f"  {name:34s} {value:14.6g} {units[name]}")
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layers.items()}
    elif args.trace:
        metrics = {}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "wall_s": {"value": statistics.median(wall), "unit": "s"},
            "peak_rss_mb": {"value": bench.peak_rss, "unit": "MB"},
        }

    if args.write_digests:
        if args.seed != DEFAULT_SEED or failed:
            print("error: digests are stored only from a clean run of the default seed",
                  file=sys.stderr)
            return 1
        stored = {}
        if os.path.exists(DIGESTS):
            with open(DIGESTS, encoding="utf-8") as fh:
                stored = json.load(fh)
        stored[args.workload] = dict(sorted(bench.digests.items()))
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            json.dump(stored, fh, indent=1, sort_keys=True)
            fh.write("\n")

    print(json.dumps({"correct": failed == 0, "attempted": bench.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
