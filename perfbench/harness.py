"""Starting child interpreters and collecting what they measured."""

import json
import os
import platform
import select
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CONFIGS = os.path.join(HERE, "configs")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

# One BLAS thread: with two, clt.csv at seed 0 changes in its last digits.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

CHILD_TIMEOUT_S = 120.0


class ChildError(RuntimeError):
    """A child run that did not end with a result."""


def config_path(name):
    return os.path.join(CONFIGS, f"{name}.cfg")


def config_names():
    return sorted(f[:-4] for f in os.listdir(CONFIGS) if f.endswith(".cfg"))


def check_checkout():
    """The reason the program cannot be run from this checkout, or None."""
    cli = os.path.join(ROOT, "src", "ambitlab", "cli.py")
    return None if os.path.isfile(cli) else f"no program source at {cli}"


def remove_empty_work_dir():
    try:
        os.rmdir(WORK_DIR)
    except OSError:
        pass  # absent, or still in use by another run


class Child:
    """A fresh interpreter running ``child.py``: timed set-up, then measured calls.

    ``start`` returns ``setup_s``, from just before the interpreter is started
    until it reports that ``ambitlab.cli`` is imported and the config valid.
    ``run`` has the child fork one process for one ``cli.run`` and returns its
    measurements, with the times of the calibration runs that followed it.
    Both raise ``ChildError`` when the child fails or does not answer in time.  The child runs in a session of its own, so ``close``
    stops it together with any process it forked, and has waited for it by
    the time it returns.
    """

    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.proc = None

    def start(self, timeout=CHILD_TIMEOUT_S):
        cmd = [sys.executable, os.path.join(HERE, "child.py"), config_path(self.name),
               str(self.seed)]
        env = dict(os.environ, **PINNED_ENV)
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, start_new_session=True)
        line = self._reply(timeout)
        setup_s = time.perf_counter() - start
        if line != b"ready":
            raise ChildError(f"{self.name}: child ended set-up without reporting ready")
        return setup_s

    def run(self, out_dir, trace=False, timeout=CHILD_TIMEOUT_S):
        os.makedirs(out_dir, exist_ok=True)
        result_path = os.path.join(out_dir, "child_result.json")
        try:
            command = ["run", out_dir, "1" if trace else "0", result_path]
            self.proc.stdin.write(json.dumps(command).encode() + b"\n")
            self.proc.stdin.flush()
        except OSError:
            raise ChildError(f"{self.name}: child is gone") from None
        line = self._reply(timeout)
        try:
            reply = json.loads(line)
        except ValueError:
            raise ChildError(f"{self.name}: child answered {line.decode()!r}") from None
        if reply["code"] != 0 or not reply["calibration_s"]:
            raise ChildError(f"{self.name}: measured call ended with {reply}")
        with open(result_path) as fh:
            result = json.load(fh)
        os.remove(result_path)
        if result["status"] != 0:
            raise ChildError(f"{self.name}: cli.run returned exit status {result['status']}")
        result["calibration_s"] = reply["calibration_s"]
        return result

    def _reply(self, timeout):
        ready, _, _ = select.select([self.proc.stdout], [], [], max(timeout, 0.0))
        if not ready:
            raise ChildError(f"{self.name}: child gave no answer in {timeout:g} s")
        return self.proc.stdout.readline().strip()

    def close(self, grace=2.0):
        if self.proc is None:
            return
        try:
            self.proc.stdin.close()  # end of input ends an idle child
            self.proc.wait(timeout=grace)
        except (OSError, subprocess.TimeoutExpired):
            pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)  # and anything it forked
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()
        self.proc = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close(grace=0.0 if exc_type else 2.0)


def run_child(name, seed, out_dir, trace=False, timeout=CHILD_TIMEOUT_S):
    """One measured call in a fresh child, with ``setup_s`` added to its result."""
    with Child(name, seed) as child:
        setup_s = child.start(timeout)
        result = child.run(out_dir, trace, timeout)
    result["setup_s"] = setup_s
    return result


def environment(versions):
    """Machine and library facts that the timings depend on."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), **versions, **PINNED_ENV}
