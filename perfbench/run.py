#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload lubm-graph-k4 --seed 1 --seconds 30 --trace 0

It builds perfbench (a Go module of its own that imports the repository's
packages from ../) into .bench_build/, with the Go build cache there too, so
that nothing outside the checkout is read or written besides the Go
toolchain. Then it runs the binary with the same arguments. The last line of
standard output is the JSON result; see perfbench/README.md.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def source_digest():
    """sha256 over the repository's Go sources and module files."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod at %s; run from a repository checkout" % ROOT, file=sys.stderr)
        return 2
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=os.path.join(ROOT, "perfbench"), env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    env["PERFBENCH_COMMIT"] = commit()
    env["PERFBENCH_SOURCE_SHA256"] = source_digest()
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
