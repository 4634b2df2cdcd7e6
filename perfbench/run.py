#!/usr/bin/env python3
"""cwsim's benchmark: build cwsim_perf from source, run one workload, stamp it.

    python3 perfbench/run.py --workload fig2_nas --seed 1 --seconds 30 --trace 0

Run from the root of a cwsim source tree. The first call configures and
builds `cwsim_perf` (Release + LTO, as the root CMakeLists sets them)
under .bench_build/; later calls only re-check the build. cwsim_perf's
last stdout line is the result JSON. Every result is also appended,
with its run stamp (host, build, commit, seed, workers), to
.bench_build/out/results.jsonl. cwsim_perf runs one sweep worker per
CPU this process may use.

    python3 perfbench/run.py --self-test

checks that a tampered expected digest is reported as a failed run.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "cwsim"
OUT_DIR = BUILD_ROOT / "out"
PERF_BIN = BUILD_DIR / "cwsim_perf"
WORKLOADS = ("fig2_nas", "as_mdpt", "long_trace")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_logged(cmd, log):
    with open(log, "a") as out:
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode


def build():
    """Configure once, then (re)build cwsim_perf; quiet unless it fails."""
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no cwsim sources under {ROOT}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_ROOT / "build.log"
    if not (BUILD_DIR / "Makefile").is_file():
        if run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR)],
                      log):
            fail(f"cmake configure failed; see {log}")
    if run_logged(["cmake", "--build", str(BUILD_DIR), "--target",
                   "cwsim_perf", "-j", str(nproc())], log):
        fail(f"build failed; see {log}")


def source_digest():
    """Hash of the simulator sources, for checkouts that are not git repos."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(
            p for p in path.rglob("*") if p.is_file())
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and (ROOT / ".git").exists():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "tree:" + source_digest()


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(args, nworkers):
    try:
        build_info = json.loads(
            (BUILD_DIR / "perfbench_build.json").read_text())
    except (OSError, ValueError):
        build_info = {}
    return {
        "host": {"nproc": nproc(), "cpu": cpu_model(),
                 "machine": platform.machine()},
        "build": build_info,
        "commit": commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": nworkers,
    }


def perf_cmd(workload, seed, seconds, trace, digests=None, write=False):
    """cwsim_perf's command line; it checks (or, with write, rewrites)
    the expected digests, by default perfbench/digests/<workload>.tsv."""
    digests = digests or BENCH_DIR / "digests" / f"{workload}.tsv"
    return [str(PERF_BIN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--out", str(OUT_DIR),
            "--write-digests" if write else "--digests", str(digests)]


def run_perf(cmd, seconds):
    # Repetitions stop at the boundary nearest to --seconds, after the
    # check repetition; the slack covers both on a slow host.
    timeout = 2 * seconds + 110
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"cwsim_perf did not finish within {timeout:.0f} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, lines, result


def self_test():
    """A tampered expected digest must be reported as a failed run, at a
    seed other than the default one too."""
    good = BENCH_DIR / "digests" / "fig2_nas.tsv"
    rows = good.read_text().splitlines()
    first = next(i for i, r in enumerate(rows) if not r.startswith("#"))
    fields = rows[first].split("\t")
    fields[1] = "0" * 16 if fields[1] != "0" * 16 else "1" * 16
    rows[first] = "\t".join(fields)
    tampered = OUT_DIR / "tampered-fig2_nas.tsv"
    tampered.write_text("\n".join(rows) + "\n")

    checks = []
    for digests, want_failed in ((good, 0), (tampered, 1)):
        code, lines, result = run_perf(
            perf_cmd("fig2_nas", 1, 0, 0, digests=digests), 0)
        named = any(line.startswith(f"FAILED check {fields[0]}: result")
                    for line in lines)
        ok = (result is not None and result["failed"] == want_failed
              and result["correct"] == (want_failed == 0)
              and named == (want_failed == 1)
              and code == (0 if want_failed == 0 else 1))
        print(f"self-test: {digests.name}: exit {code}, "
              f"failed={result and result['failed']} "
              f"(want {want_failed}): {'ok' if ok else 'WRONG'}")
        checks.append(ok)
    return 0 if all(checks) else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-digests", action="store_true",
                    help="rewrite perfbench/digests/<workload>.tsv "
                         "from the check repetition")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    build()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    if args.self_test:
        return self_test()

    code, lines, result = run_perf(
        perf_cmd(args.workload, args.seed, args.seconds, args.trace,
                 write=args.write_digests), args.seconds)
    header = re.search(r"\bworkers=(\d+)", lines[0]) if lines else None
    run_stamp = stamp(args, int(header.group(1)) if header else None)
    print("stamp: " + json.dumps(run_stamp, sort_keys=True))
    for line in lines:
        print(line)
    if result is None:
        fail(f"cwsim_perf exited {code} without a result")
    with open(OUT_DIR / "results.jsonl", "a") as out:
        out.write(json.dumps({"stamp": run_stamp, "result": result},
                             sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
