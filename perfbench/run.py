"""Benchmark of the ambitlab CLI: one workload, timed in fresh processes.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run starts SETUPS fresh interpreters, one after the other.  Each imports
``ambitlab.cli`` from ``src/`` and validates ``configs/NAME.cfg`` with the
seed applied as ``--seed`` would; then, for its share of the S seconds, it
forks one process per repetition, which times ``cli.run`` on the config.  A
forked process starts from the state set-up left, so the ``compute_cn`` cache
is as cold as in a user's CLI call, and set-up is not paid again for every
repetition.  Repetitions run one at a time.  Every repetition's CSVs go
through the correctness gate (``gate.py``) and must also be byte-identical to
the first repetition's.

``--trace 0`` reports the end-to-end metrics:
    setup_s      interpreter start until ``ambitlab.cli`` is imported and the
                 config has passed ``cli.validate``; mean over the SETUPS
                 interpreters, at reference speed
    wall_s       ``cli.run(config)`` from call to return; mean over the
                 repetitions, at reference speed
    peak_rss_mb  a repetition's maximum resident set size; median
The host this was built on runs the same code up to 1.7 times slower, in
stalls of milliseconds whose share of the time drifts over minutes as other
tenants load it, so raw timings of the same code spread by a quarter or more
between runs.  That share is divided out: after each repetition the child
times a fixed calibration kernel (``child.py``) for a tenth as long, so the
kernel meets about the same share of stalls as the program.  A timing "at
reference speed" is its mean scaled by REFERENCE_CALIBRATION_S over the
kernel's mean time.  The raw timings and the kernel's are printed as well.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of ``tracing.py`` (medians over the traced repetitions) and
``tracing_overhead_s``, the traced minus the untraced mean raw ``wall_s``.

The next-to-last line of standard output records the environment, the
repetition counts, the gate verdict, the timing samples and, when tracing,
each layer's share of ``cli.run``; the last line is the result.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time

import gate
import harness
import tracing

WORKLOADS = ("lln-uniform-mean", "lln-singular-sim", "clt-singular-cov",
             "asym-singular-regions")
SETUPS = 6  # fresh interpreters per run
MIN_REPEATS = 3
HARD_LIMIT_S = 150.0  # no repetition may run past this, whatever --seconds says
UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# About the calibration kernel's mean time on the 2-vCPU Intel Xeon VM the
# benchmark was built on (Python 3.11, numpy 2.4), in its quieter minutes, so
# that timings at reference speed read close to the wall times it gave then.
REFERENCE_CALIBRATION_S = 0.015


def summary(values):
    """Mean, lower decile, median and upper decile, with the sample count."""
    values = sorted(values)
    cuts = (statistics.quantiles(values, n=10, method="inclusive")
            if len(values) > 1 else values * 9)
    return {"mean": statistics.fmean(values), "p10": cuts[0],
            "p50": statistics.median(values), "p90": cuts[8], "count": len(values)}


class Measurement:
    """Everything one run collects, repetition by repetition."""

    def __init__(self, workload, seed, trace, work):
        self.workload, self.seed, self.trace, self.work = workload, seed, trace, work
        self.references = gate.load_references()
        self.setups, self.untraced, self.traced, self.calibration = [], [], [], []
        self.failures, self.verdicts = [], []
        self.first_digests = None
        self.starts = 0  # children started
        self.attempts = 0  # repetitions attempted

    def have_all(self):
        return (len(self.untraced) >= MIN_REPEATS
                and (len(self.traced) >= 1 or not self.trace))

    def hopeless(self):
        return (len(self.failures) >= MIN_REPEATS
                and not (self.untraced or self.traced))

    def repeat(self, child, timeout):
        """One repetition in ``child``; a ``ChildError`` means the child is unusable."""
        traced_turn = self.trace and self.attempts % 2 == 1
        out_dir = os.path.join(self.work, f"rep{self.attempts}")
        self.attempts += 1
        try:
            row = child.run(out_dir, trace=traced_turn, timeout=timeout)
            verdict = gate.check(self.workload, self.seed, out_dir, self.references)
            digests = gate.digests(out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        self.calibration.extend(row["calibration_s"])
        self.first_digests = self.first_digests or digests
        if digests != self.first_digests:
            verdict["status"] = "failed"
            verdict["problems"].append("CSVs differ from the first repetition's")
        self.verdicts.append(verdict)
        if verdict["status"] == "failed":
            self.failures.append("; ".join(verdict["problems"]))
        else:
            (self.traced if traced_turn else self.untraced).append(row)


def measure(workload, seed, seconds, trace, work):
    """Run SETUPS children over ``seconds``; return the ``Measurement``."""
    m = Measurement(workload, seed, trace, work)
    start = time.perf_counter()
    longest = 0.0  # the longest repetition so far
    for index in range(SETUPS):
        share_end = start + seconds * (index + 1) / SETUPS
        last = index == SETUPS - 1
        try:
            with harness.Child(workload, seed) as child:
                m.starts += 1
                m.setups.append(child.start(
                    min(harness.CHILD_TIMEOUT_S, HARD_LIMIT_S - (time.perf_counter() - start))))
                while not m.hopeless():
                    began = time.perf_counter()
                    timeout = min(harness.CHILD_TIMEOUT_S, HARD_LIMIT_S - (began - start))
                    if timeout <= 0:
                        break
                    m.repeat(child, timeout)
                    now = time.perf_counter()
                    longest = max(longest, now - began)
                    if now + longest > share_end and (m.have_all() or not last):
                        break
        except harness.ChildError as exc:
            m.failures.append(str(exc))
        if m.hopeless() or time.perf_counter() - start > HARD_LIMIT_S - longest:
            break
    return m


def _summary(verdicts):
    statuses = {v["status"] for v in verdicts}
    status = ("failed" if "failed" in statuses or not verdicts
              else "unchecked" if "unchecked" in statuses else "passed")
    devs = [v["max_rel_dev"] for v in verdicts if v["max_rel_dev"] is not None]
    return {"status": status, "max_rel_dev": max(devs) if devs else None}


def layer_shares(metrics):
    """Each traced function's total time over that of ``cli.run``."""
    root = metrics["cli.run.total_s"]
    return {name[:-len(".total_s")]: round(value / root, 4)
            for name, value in metrics.items()
            if name.endswith(".total_s") and root > 0 and value > 0}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its children and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    problem = harness.check_checkout()
    if problem:
        print(problem, file=sys.stderr)
        return 2

    work = os.path.join(harness.WORK_DIR, f"{args.workload}-{os.getpid()}")
    try:
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        harness.remove_empty_work_dir()
    for message in m.failures:
        print(f"failed repetition: {message}", file=sys.stderr)
    if not m.setups or not m.untraced or (args.trace and not m.traced):
        print("no repetition succeeded", file=sys.stderr)
        return 1

    verdict = _summary(m.verdicts)
    wall = [row["wall_s"] for row in m.untraced]
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "repeats": {"setups": len(m.setups), "untraced": len(m.untraced),
                    "traced": len(m.traced)},
        "environment": harness.environment(m.untraced[0]["versions"]),
        "gate": verdict,
        "setup_s": summary(m.setups),
        "wall_s": summary(wall),
        "calibration_s": summary(m.calibration),
    }
    if args.trace:
        units = dict(tracing.metric_names())
        per_run = [tracing.layer_metrics(row["spans"]) for row in m.traced]
        # Counts repeat exactly; median_low keeps them whole numbers.
        metrics = {name: (statistics.median_low if units[name] == "count"
                          else statistics.median)(run[name] for run in per_run)
                   for name in per_run[0]}
        metrics["tracing_overhead_s"] = (
            statistics.fmean(row["wall_s"] for row in m.traced) - statistics.fmean(wall))
        info["layer_share_of_cli_run"] = layer_shares(metrics)
    else:
        # Above 1 when the host ran this run slower than the reference.
        slowdown = statistics.fmean(m.calibration) / REFERENCE_CALIBRATION_S
        info["slowdown"] = slowdown
        metrics = {
            "setup_s": statistics.fmean(m.setups) / slowdown,
            "wall_s": statistics.fmean(wall) / slowdown,
            "peak_rss_mb": statistics.median(row["peak_rss_mb"] for row in m.untraced),
        }
        info["samples"] = {"setup_s": m.setups, "wall_s": wall}
        units = UNITS
    print(json.dumps(info))
    print(json.dumps({
        "correct": verdict["status"] != "failed" and not m.failures,
        "attempted": m.starts + m.attempts,
        "failed": len(m.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
