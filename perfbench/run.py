#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload paper-bare --seed 1 --seconds 10 --trace 0

The Go program in this directory is built into .bench_build/ (the Go
build cache goes there too, so nothing outside the checkout is
written), then run from the checkout root. Its last line of standard
output is the JSON result; build diagnostics go to standard error.
"""

import argparse
import hashlib
import os
import subprocess
import sys

# RUN_TIMEOUT bounds one run of the built program, in seconds.
RUN_TIMEOUT = 170


def revision(root):
    """Return the git commit, or a hash of the source files when the
    checkout is not a git repository."""
    if os.path.isdir(os.path.join(root, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in (".git", ".bench_build"))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum", "BENCHMARK.json"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "source-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build")
    env = dict(os.environ,
               GOCACHE=os.path.join(out, "gocache"),
               GOPATH=os.path.join(out, "gopath"),
               GOTOOLCHAIN="local", GOPROXY="off", GOWORK="off",
               GOFLAGS="", CGO_ENABLED="0")
    binary = os.path.join(out, "bin", "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--commit", revision(root)]
    try:
        return subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        print("run.py: run exceeded %d s" % RUN_TIMEOUT, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
