#!/usr/bin/env python3
"""Self-tests of the clockbench benchmark.

Usage (from the root of a checkout):
    python3 clockbench/selftest.py

Provenance (the benchmark measures only the program of its own checkout):
  1. In a copy that holds only BENCHMARK.json and clockbench/, the command
     exits non-zero and prints no result line, with and without leftover
     build output from this checkout.
  2. In a copy of the checkout whose build directory was configured from
     another source tree and holds a forged driver, the command removes that
     tree, rebuilds from the copy's sources, and reports real figures.

Cross paths (small sizes; each pair of totals is reached independently):
  3. The TPC-B table digest is the same on NoFTL+IPA and on page-FTL for the
     same seed and transaction count.
  4. The scan-large digest is the same under the raw and the delta+compress
     codecs.
  5. Traced runs report the same simulated counters as untraced runs, on
     every workload: the timing wrappers change nothing on the device clock.

Scratch copies live under .bench_build/selftest and are removed at the end.
Exits 0 when every check passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing behind in clockbench/
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark's own build logic)

SCRATCH = run.ROOT / ".bench_build" / "selftest"
CMD = ["python3", "clockbench/run.py", "--workload", "tpcb-ipa", "--seed", "3",
       "--seconds", "1", "--trace", "0"]
FAILURES = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def result_line(stdout):
    for line in reversed(stdout.strip().splitlines()):
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict) and "correct" in obj:
            return obj
    return None


def copy_bench(dest):
    dest.mkdir(parents=True)
    shutil.copy2(run.ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(run.HERE, dest / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))


def bench_only_copy():
    dest = SCRATCH / "bench-only"
    copy_bench(dest)
    p = subprocess.run(CMD, cwd=dest, capture_output=True, text=True, timeout=180)
    check(p.returncode != 0 and result_line(p.stdout) is None,
          "benchmark-only copy: non-zero exit, no result line")
    # Leftover build output of this checkout must not be picked up either.
    shutil.copytree(run.BUILD, dest / ".bench_build" / run.HERE.name,
                    symlinks=True)
    p = subprocess.run(CMD, cwd=dest, capture_output=True, text=True, timeout=180)
    check(p.returncode != 0 and result_line(p.stdout) is None,
          "benchmark-only copy with leftover build output: non-zero exit, no result")


def foreign_build_tree():
    dest = SCRATCH / "checkout"
    copy_bench(dest)
    shutil.copytree(run.ROOT / "src", dest / "src")
    build = dest / ".bench_build" / run.HERE.name
    build.mkdir(parents=True)
    (build / "CMakeCache.txt").write_text(
        "CMAKE_HOME_DIRECTORY:INTERNAL=/elsewhere/clockbench\n"
        "IPA_SOURCE_DIR:PATH=/elsewhere/src\n")
    forged = build / run.DRIVER
    forged.write_text("#!/bin/sh\necho '{\"correct\": true, \"attempted\": 7, "
                      "\"failed\": 0, \"error\": \"\", \"end_to_end\": {}, "
                      "\"per_layer\": {}, \"sim\": {}, \"info\": {}}'\n")
    forged.chmod(0o755)
    p = subprocess.run(CMD, cwd=dest, capture_output=True, text=True, timeout=900)
    res = result_line(p.stdout)
    check(p.returncode == 0 and res is not None and res["correct"]
          and res["attempted"] > 7 and "setup_s" in res["metrics"],
          "foreign build tree: rebuilt and measured the copy's own program")
    check("removing build tree" in p.stderr,
          "foreign build tree: the stale tree was removed, not reused")
    cache = (build / "CMakeCache.txt").read_text()
    check(f"CMAKE_HOME_DIRECTORY:INTERNAL={dest / run.HERE.name}" in cache,
          "foreign build tree: reconfigured from the copy's own sources")


def driver(exe, *args):
    p = subprocess.run([str(exe), *args], capture_output=True, text=True,
                       timeout=600, check=True)
    res = json.loads(p.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        check(False, f"driver {' '.join(args)}: {res['error']}")
    return res


def cross_paths(exe):
    ops = ["--seed", "9", "--ops", "30000"]
    ipa = driver(exe, "--workload", "tpcb-ipa", *ops)
    ftl = driver(exe, "--workload", "tpcb-pageftl", *ops)
    check(ipa["info"]["digest"] == ftl["info"]["digest"],
          f"TPC-B digest NoFTL+IPA {ipa['info']['digest']} == "
          f"page-FTL {ftl['info']['digest']}")
    raw = driver(exe, "--workload", "scan-large", "--codec", "raw", *ops)
    lz = driver(exe, "--workload", "scan-large", "--codec", "delta+compress", *ops)
    check(raw["info"]["digest"] == lz["info"]["digest"],
          f"scan-large digest raw {raw['info']['digest']} == "
          f"delta+compress {lz['info']['digest']}")
    for w in run.WORKLOADS:
        plain = driver(exe, "--workload", w, "--trace", "0", *ops)
        traced = driver(exe, "--workload", w, "--trace", "1", *ops)
        diff = sorted(k for k in plain["sim"] if plain["sim"][k] != traced["sim"].get(k))
        check(not diff and plain["info"]["digest"] == traced["info"]["digest"],
              f"{w}: traced run has the untraced simulated counters"
              + (f" (differ: {diff})" if diff else ""))


def main():
    if SCRATCH.exists():
        shutil.rmtree(SCRATCH)
    try:
        exe = run.build()
        bench_only_copy()
        foreign_build_tree()
        cross_paths(exe)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
