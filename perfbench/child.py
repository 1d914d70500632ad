"""A fresh interpreter that sets up once and forks one process per measured call.

Usage: python3 perfbench/child.py CONFIG SEED

Imports ``ambitlab.cli`` from the checkout's ``src/``, applies the seed as the
CLI's ``--seed`` does and validates the config.  It then prints ``ready`` on
stdout, which ends set-up for the parent, and serves commands read from stdin,
one JSON list a line:

    ["run", OUT_DIR, TRACE, RESULT_JSON]

forks a process that applies OUT_DIR as ``--out`` does, times ``cli.run`` and
writes the result as JSON to RESULT_JSON.  When it has ended, this process
forks another that times runs of ``calibration_kernel`` until they add up to
CALIBRATION_SHARE of the first one's time (at least MIN_CALIBRATION_RUNS).
It then prints a JSON object with the first process's exit ``code`` and the
``calibration_s`` times.  Every forked process starts from the state set-up
left: the ``compute_cn`` cache is as cold as in a user's CLI call, and the
kernel's time does not depend on what the program did to the process.
With TRACE set to 1 every function in ``tracing.TRACED`` is wrapped first,
``cli.validate`` runs again under the tracer, and the spans go into the result
as well.  End of input ends the process.
"""

import json
import os
import platform
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Calibration time after each ``cli.run``, as a share of its time: the kernel
# then samples the host's speed about as evenly as the program does.
CALIBRATION_SHARE = 0.1
MIN_CALIBRATION_RUNS = 3


def calibration_kernel(numpy, grid, stream):
    """Fixed work of the kinds the program does: an interpreted loop, a 2-D
    FFT and a pass over an array larger than the core's cache.  Its time
    tracks the speed the host gives this process, which ``run.py`` divides
    out of the program's timings."""
    total = 0
    for i in range(50_000):
        total += i * i
    numpy.fft.irfft2(numpy.fft.rfft2(grid) * 0.5, s=grid.shape)
    numpy.sqrt(numpy.abs(stream) * 1.0001)
    return total


def calibrate(budget_s):
    """Times of kernel runs that add up to ``budget_s``, at least MIN_CALIBRATION_RUNS."""
    import numpy
    rng = numpy.random.default_rng(0)
    grid, stream = rng.random((512, 512)), rng.random(500_000)
    calibration_kernel(numpy, grid, stream)  # first-call costs are not the host's speed
    times = []
    while len(times) < MIN_CALIBRATION_RUNS or sum(times) < budget_s:
        start = time.perf_counter()
        calibration_kernel(numpy, grid, stream)
        times.append(time.perf_counter() - start)
    return times


def measure(cli, config, out_dir, trace, result_path):
    """Body of a forked process: one timed ``cli.run``."""
    config = config.with_overrides(out=out_dir)
    tracer = None
    if trace == "1":
        from tracing import Tracer
        tracer = Tracer().install()
        if cli.validate(config):
            return 2
    start = time.perf_counter()
    status = cli.run(config)
    wall_s = time.perf_counter() - start

    import numpy
    import scipy
    result = {
        "status": status,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        result["spans"] = tracer.spans
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


def send_calibration(budget_s, fd):
    os.write(fd, json.dumps(calibrate(budget_s)).encode())
    return 0


def in_fork(body):
    """Run ``body()`` in a forked process; return its exit code.

    Anything the forked process prints goes to stderr, off the parent's pipe.
    """
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.dup2(2, 1)
            sys.stdout = sys.stderr
            code = body()
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    _, wait_status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(wait_status)


def serve(cli, config, commands, replies):
    for line in commands:
        verb, out_dir, trace, result_path = json.loads(line)
        if verb != "run":
            return 2
        start = time.perf_counter()
        code = in_fork(lambda: measure(cli, config, out_dir, trace, result_path))
        budget_s = CALIBRATION_SHARE * (time.perf_counter() - start)
        read_end, write_end = os.pipe()
        in_fork(lambda: send_calibration(budget_s, write_end))
        os.close(write_end)
        with os.fdopen(read_end) as fh:
            times = json.loads(fh.read() or "[]")
        replies.write(json.dumps({"code": code, "calibration_s": times}) + "\n")
        replies.flush()
    return 0


def main(argv):
    config_path, seed = argv
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    from ambitlab import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"ambitlab was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    config = cli.ExperimentConfig.from_file(config_path).with_overrides(seed=int(seed))
    problems = cli.validate(config)
    if problems:
        for message in problems:
            print(f"config: {message}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    return serve(cli, config, sys.stdin, sys.stdout)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
