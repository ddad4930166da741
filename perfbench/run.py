#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under that root; build output goes to stderr, and
the last line of stdout is the benchmark's JSON result. See README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("join_skew", "fanout_light", "durable_negation")


def source_id():
    """The commit when run from a git checkout, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if a.seed < 0 or not 1 <= a.seconds <= 600:
        p.error("--seed must be >= 0 and --seconds in [1, 600]")

    if not os.path.isfile(os.path.join(ROOT, "src", "net", "server.h")):
        print("engine sources not found under src/; run from a full checkout",
              file=sys.stderr)
        return 2

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build = os.path.join(build_root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("build failed: " + " ".join(cmd), file=sys.stderr)
            return 2

    cmd = [os.path.join(build, "upa_perfbench"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--workdir", os.path.join(build_root, "run-%d" % os.getpid()),
           "--source", source_id()]
    if a.trace:
        traces = os.path.join(build_root, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file",
                os.path.join(traces, "%s-seed%d.json" % (a.workload, a.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
