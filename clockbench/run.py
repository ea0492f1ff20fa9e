#!/usr/bin/env python3
"""clockbench: build the program of this checkout and time one workload.

Usage (from the root of a checkout):
    python3 clockbench/run.py --workload W --seed N --seconds S --trace 0|1

It builds the benchmark driver from the checkout's own src/ into
.bench_build/clockbench, checks that the binary carries the stamp of the
sources it was just built from, runs it, and prints one JSON object as the
last line of stdout: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones. Build logs go to stderr.

In a directory without the program's sources it exits with code 2 and
prints no result, whatever build output lies around.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / HERE.name
DRIVER = "clockbench_driver"
WORKLOADS = ("tpcb-ipa", "tpcb-pageftl", "scan-large", "kv-serve")


def die(msg):
    print(f"clockbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_stamp():
    """SHA-256 over the program sources and the benchmark's own sources."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for p in sorted(top.rglob("*")):
            if p.is_file() and (p.suffix in (".cc", ".h") or p.name == "CMakeLists.txt"):
                h.update(str(p.relative_to(ROOT)).encode() + b"\0")
                h.update(p.read_bytes() + b"\0")
    return h.hexdigest()


def cache_entries(build):
    """Source-directory entries of an existing CMake cache, if any."""
    entries = {}
    cache = build / "CMakeCache.txt"
    if cache.is_file():
        for line in cache.read_text(errors="replace").splitlines():
            key, sep, value = line.partition("=")
            name = key.split(":")[0]
            if sep and name in ("CMAKE_HOME_DIRECTORY", "IPA_SOURCE_DIR"):
                entries[name] = value
    return entries


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no program sources at {ROOT / 'src'}; nothing to build or measure")
    stamp = source_stamp()
    # A build tree configured from any other source directory (a copy of
    # another checkout, an older layout) is removed, never reused.
    entries = cache_entries(BUILD)
    expected = {"CMAKE_HOME_DIRECTORY": str(HERE), "IPA_SOURCE_DIR": str(ROOT / "src")}
    stale = any(v != expected[k] for k, v in entries.items())
    if BUILD.exists() and (stale or not (BUILD / "CMakeCache.txt").is_file()):
        print(f"clockbench: removing build tree not configured from {HERE}",
              file=sys.stderr)
        shutil.rmtree(BUILD)
    BUILD.mkdir(parents=True, exist_ok=True)
    header = BUILD / "source_stamp.h"
    text = f'#define CLOCKBENCH_SOURCE_STAMP "{stamp}"\n'
    if not header.is_file() or header.read_text() != text:
        header.write_text(text)
    exe = BUILD / DRIVER
    if exe.exists():
        exe.unlink()  # never run a binary this build did not produce
    log = sys.stderr
    tmp = BUILD / "tmp"  # compiler scratch files stay inside the checkout
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=log, env=env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", DRIVER, "-j", jobs],
                   check=True, stdout=log, env=env)
    got = subprocess.run([str(exe), "--stamp"], check=True, capture_output=True,
                         text=True).stdout.strip()
    if got != stamp:
        die(f"built driver carries stamp {got}, sources have {stamp}")
    return exe


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        die("no BENCHMARK.json at the checkout root")
    spec = json.loads(spec_path.read_text())
    exe = build()

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die(f"driver exited with {proc.returncode}")
    raw = json.loads(lines[-1])
    if raw.get("error"):
        print(f"clockbench: {raw['error']}", file=sys.stderr)
    for k, v in raw.get("info", {}).items():
        print(f"clockbench: {k} = {v}", file=sys.stderr)

    section, source = ("per_layer", raw["per_layer"]) if args.trace else \
        ("end_to_end", raw["end_to_end"])
    metrics = {}
    for m in spec[section]:
        if m["name"] not in source:
            die(f"driver did not report {m['name']}")
        metrics[m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}
    result = {"correct": bool(raw["correct"]), "attempted": int(raw["attempted"]),
              "failed": int(raw["failed"]), "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
