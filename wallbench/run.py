#!/usr/bin/env python3
"""Builds and runs the SparseNN wall-clock benchmark.

    python3 wallbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `wallbench` package (release, offline)
into `$CARGO_TARGET_DIR` (default `.bench_build`), prints a host and build
fingerprint line, then runs the benchmark binary and passes its output and exit
code through. The last stdout line is the JSON result. Without the repository's
crates next to this directory the build fails and no result is printed.
"""

import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "wallbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Builds the benchmark; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print("wallbench: no repository Cargo.toml next to wallbench/", file=sys.stderr)
        return None
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(PACKAGE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"wallbench: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("wallbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target_dir(), "release", "sparsenn-wallbench")


def command_output(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return ""


def source_digest():
    """SHA-256 over the sources the binary is built from, so a result names
    the code it measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    files = []
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "wallbench"):
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files.append(path)
        for base, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d != "target")
            files += [os.path.join(base, n) for n in names if n.endswith((".rs", ".toml", ".lock", ".py"))]
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def fingerprint(args):
    seed = args[args.index("--seed") + 1] if "--seed" in args[:-1] else None
    return {
        "nproc": os.cpu_count(),
        "rustc": command_output(["rustc", "-V"]),
        "cargo_profile": "release",
        "commit": command_output(["git", "rev-parse", "--short=12", "HEAD"]) or "none",
        "source_sha256": source_digest(),
        "seed": seed,
    }


def run(binary, args):
    """Runs the binary from the repository root, streaming its stdout."""
    proc = subprocess.Popen([binary] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"wallbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


def main(args):
    binary = build()
    if binary is None:
        return 1
    print("fingerprint " + json.dumps(fingerprint(args), sort_keys=True), flush=True)
    return run(binary, args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
