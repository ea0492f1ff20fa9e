#!/usr/bin/env python3
"""Measure one host-clock trajectory point and append it to BENCH_HOST.json.

Runs clockbench (clockbench/run.py, untraced) on every workload of the
checkout's BENCHMARK.json for each seed, one run at a time, and records the
median of every end-to-end metric per workload, the per-seed values, the
compiler and the CPU model line.

The seeds are fixed (901-905) and the run length is BENCHMARK.json's
`run_seconds`, so every point of the file is taken the same way.

Usage (from the root of a checkout):
    scripts/bench_host_point.py --note "what changed"
    scripts/bench_host_point.py --checkout ../parent --note "..."

--checkout names the tree whose program is measured (default: this one);
the point is always appended to this checkout's BENCH_HOST.json. The point's
`commit` is the measured tree's short HEAD id when that tree has no
uncommitted changes to tracked files, else THIS_COMMIT: the point then
measures the commit that adds it. Every run must come back `correct` with no
failed operations, else nothing is written.
"""

import argparse
import datetime
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "BENCH_HOST.json"
SEEDS = range(901, 906)
THIS_COMMIT = "the commit that adds this point"
ABOUT = ("Host-clock trajectory: one point per measured commit, written by "
         "scripts/bench_host_point.py. Medians of the clockbench end-to-end "
         "metrics over the listed seeds; timings hold only for the machine "
         "named in the point. `commit` is the measured tree's short id, or '"
         + THIS_COMMIT + "' when the point measures the uncommitted change "
         "that records it (find it with `git log -S '<note>' -- BENCH_HOST.json`).")


def commit_of(checkout):
    git = ["git", "-C", str(checkout)]
    dirty = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                           capture_output=True, text=True, check=True).stdout.strip()
    if dirty:
        return THIS_COMMIT
    return subprocess.run(git + ["rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True, check=True).stdout.strip()


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def compiler(checkout):
    cache = checkout / ".bench_build" / "clockbench" / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_CXX_COMPILER:"):
            exe = line.split("=", 1)[1]
            out = subprocess.run([exe, "--version"], capture_output=True, text=True)
            return out.stdout.splitlines()[0]
    return "unknown"


def dump(doc):
    """JSON with every list of numbers kept on one line."""
    text = json.dumps(doc, indent=2)
    return re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + ", ".join(v.strip() for v in m.group(1).split(",")) + "]",
                  text) + "\n"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", type=Path, default=ROOT)
    ap.add_argument("--note", required=True)
    args = ap.parse_args()

    checkout = args.checkout.resolve()
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    runs = {w: {} for w in workloads}
    for seed in SEEDS:
        for w in workloads:
            cmd = ["python3", "clockbench/run.py", "--workload", w, "--seed",
                   str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct") or result.get("failed"):
                sys.stderr.write(proc.stderr)
                sys.exit(f"bench_host_point: {w} seed {seed} did not run correctly")
            for name, m in result["metrics"].items():
                runs[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: host_tps {result['metrics']['host_tps']['value']}",
                  file=sys.stderr)

    point = {
        "commit": commit_of(checkout),
        "note": args.note,
        "date": datetime.date.today().isoformat(),
        "compiler": compiler(checkout),
        "cpu": cpu_model(),
        "cpus": os.cpu_count(),
        "command": f"python3 clockbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g}",
        "seeds": list(SEEDS),
        "median": {w: {k: statistics.median(v) for k, v in m.items()}
                   for w, m in runs.items()},
        "runs": runs,
    }
    doc = (json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else
           {"schema": "ipa-bench-host-v1",
            "about": ABOUT,
            "points": []})
    doc["points"].append(point)
    TRAJECTORY.write_text(dump(doc))
    print(json.dumps(point["median"], indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
