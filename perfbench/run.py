#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload local-pagerank --seed 1 --seconds 10 --trace 0

The benchmark program is built from source into .bench_build/ with the Go
toolchain on PATH; every file the build and the run write stays under
.bench_build/. The last line of standard output is the JSON result.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def source_digest():
    """Digest of the Go sources the binary is built from: the revision
    stand-in when the checkout carries no VCS metadata."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:12]


def revision():
    """The checkout's git revision, or "unknown" outside a git work tree."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unknown"
        rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return rev.stdout.strip() if rev.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def go_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    home = os.path.join(BUILD, "home")
    for d in (tmp, home):
        os.makedirs(d, exist_ok=True)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOTELEMETRY": "off",
    })
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = go_env()
    build = subprocess.run(["go", "build", "-buildvcs=false", "-o", BINARY, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [BINARY, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-source", source_digest(), "-revision", revision()]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(l for l in lines if not l.startswith("{")) + "\n")
        print(f"perfbench: exit status {proc.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("perfbench: no result line", file=sys.stderr)
        return 1
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
