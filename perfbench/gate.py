"""Correctness gate: the CSVs of a run against committed seed-0 references.

Usage:
    python3 perfbench/gate.py           # run every config at seed 0 and check it
    python3 perfbench/gate.py --write   # run them and store the references

``reference/sha256.json`` holds the SHA-256 of every CSV that each config in
``configs/`` writes at seed 0; ``reference/<config>/`` holds the CSVs
themselves, so that a hash mismatch can be reported as the largest relative
deviation of any numeric cell.  ``report.json`` is left out because it
carries the run time.

Verdicts:
    passed     every hash matches, or every numeric cell is within TOLERANCE
    failed     a cell deviates by more, or the tables differ in shape or text
    unchecked  no reference exists for this seed; only the shape, the text
               and the finiteness of the numbers were checked
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import sys

import harness

REF_DIR = os.path.join(harness.HERE, "reference")
REF_SEED = 0
TOLERANCE = 1e-9  # largest relative deviation a numeric cell may show
# Cells below this magnitude are rounding noise, such as the FFT check error
# in field.csv's header; they are compared against it instead of themselves.
NOISE_FLOOR = 1e-12

_SEPARATORS = re.compile(r'([,\s=()"]+)')


def csv_files(out_dir):
    return sorted(f for f in os.listdir(out_dir) if f.endswith(".csv"))


def digests(out_dir):
    out = {}
    for name in csv_files(out_dir):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _number(token):
    try:
        return float(token)
    except ValueError:
        return None


def compare(path, ref_path):
    """(problem or None, largest relative deviation) of one CSV against another.

    Each line is split into tokens at commas, blanks, ``=``, brackets and
    quotes.  Tokens that read as numbers are compared by relative deviation;
    every other token must match exactly, and every number must be finite.
    """
    with open(path) as fh, open(ref_path) as rf:
        lines, ref_lines = fh.read().splitlines(), rf.read().splitlines()
    if len(lines) != len(ref_lines):
        return f"{len(lines)} lines, reference has {len(ref_lines)}", math.inf
    worst = 0.0
    for lineno, (line, ref_line) in enumerate(zip(lines, ref_lines), start=1):
        tokens, ref_tokens = _SEPARATORS.split(line), _SEPARATORS.split(ref_line)
        if len(tokens) != len(ref_tokens):
            return f"line {lineno}: {len(tokens)} tokens, reference has {len(ref_tokens)}", math.inf
        for token, ref_token in zip(tokens, ref_tokens):
            if token == ref_token:
                continue
            value, ref_value = _number(token), _number(ref_token)
            if value is None or ref_value is None:
                return f"line {lineno}: {token!r} where the reference has {ref_token!r}", math.inf
            if not math.isfinite(value):
                return f"line {lineno}: non-finite value {token!r}", math.inf
            scale = max(abs(value), abs(ref_value), NOISE_FLOOR)
            worst = max(worst, abs(value - ref_value) / scale)
    return None, worst


def load_references():
    with open(os.path.join(REF_DIR, "sha256.json")) as fh:
        return json.load(fh)


def check(name, seed, out_dir, references):
    """Verdict on the CSVs a run of config ``name`` left in ``out_dir``.

    Returns a dict with ``status`` (passed, failed or unchecked),
    ``max_rel_dev`` (None when unchecked) and ``problems``.
    """
    expected = references["configs"][name]
    found = digests(out_dir)
    problems = []
    if sorted(found) != sorted(expected):
        problems.append(f"files {sorted(found)}, reference has {sorted(expected)}")
    worst = 0.0
    has_reference = seed == references["seed"]
    for csv in sorted(set(found) & set(expected)):
        if has_reference and found[csv] == expected[csv]:
            continue
        problem, dev = compare(os.path.join(out_dir, csv), os.path.join(REF_DIR, name, csv))
        if problem is not None:
            problems.append(f"{csv}: {problem}")
        elif has_reference:
            worst = max(worst, dev)
            if dev > TOLERANCE:
                problems.append(f"{csv}: relative deviation {dev:.3e} > {TOLERANCE:g}")
    if problems:
        status = "failed"
    else:
        status = "passed" if has_reference else "unchecked"
    return {"status": status, "max_rel_dev": worst if has_reference else None,
            "problems": problems}


def write_references(out_dirs):
    """Store the CSVs of each config's seed-0 run and their hashes."""
    table = {}
    for name, out_dir in out_dirs.items():
        target = os.path.join(REF_DIR, name)
        shutil.rmtree(target, ignore_errors=True)
        os.makedirs(target)
        for csv in csv_files(out_dir):
            shutil.copyfile(os.path.join(out_dir, csv), os.path.join(target, csv))
        table[name] = digests(out_dir)
    with open(os.path.join(REF_DIR, "sha256.json"), "w") as fh:
        json.dump({"seed": REF_SEED, "configs": table}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="store the seed-0 outputs as the new references")
    args = parser.parse_args(argv)
    problem = harness.check_checkout()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    work = os.path.join(harness.WORK_DIR, f"gate-{os.getpid()}")
    try:
        out_dirs = {}
        for name in harness.config_names():
            out_dirs[name] = os.path.join(work, name)
            harness.run_child(name, REF_SEED, out_dirs[name])
        if args.write:
            write_references(out_dirs)
            print(f"wrote references for {len(out_dirs)} configs to {REF_DIR}")
            return 0
        references = load_references()
        failed = 0
        for name, out_dir in out_dirs.items():
            verdict = check(name, REF_SEED, out_dir, references)
            failed += verdict["status"] != "passed"
            print(json.dumps({"config": name, **verdict}))
        return 1 if failed else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        harness.remove_empty_work_dir()


if __name__ == "__main__":
    sys.exit(main())
