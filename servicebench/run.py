#!/usr/bin/env python3
"""Builds the nanoxbar server and the servicebench load generator, then runs
one benchmark workload.

Run from the root of a source tree:

    python3 servicebench/run.py --workload synth-hit --seed 1 --seconds 10 --trace 0

Builds go to $CARGO_TARGET_DIR (default: .bench_build); span files of traced
runs go under it too. The last line of standard output is the JSON result.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

WORKLOADS = ("synth-hit", "synth-cold", "chip-batch")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# What the benchmark runs; hashed into the provenance, as a checkout of the
# sources may not be a git repository.
SOURCES = ("Cargo.toml", "src", "crates", "vendor", "servicebench/Cargo.toml", "servicebench/src")


def fail(message):
    print(f"servicebench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    digest = hashlib.sha256()
    for entry in SOURCES:
        path = os.path.join(ROOT, entry)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def command_output(args):
    try:
        done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def build(target, manifest, *extra):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    args = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest, *extra]
    # Cargo reports on stderr; standard output stays for the result.
    if subprocess.run(args, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail(f"build failed: {' '.join(args)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    for needed in ("Cargo.toml", "crates/service", "src/main.rs"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from a full nanoxbar source tree")

    target = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    build(target, os.path.join(ROOT, "Cargo.toml"), "--bin", "nanoxbar")
    build(target, os.path.join(BENCH_DIR, "Cargo.toml"))
    release = os.path.join(target, "release")

    command = [
        os.path.join(release, "servicebench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--server", os.path.join(release, "nanoxbar"),
        "--out", os.path.join(target, "servicebench"),
        "--clock-ticks", str(os.sysconf("SC_CLK_TCK")),
        "--provenance", "git_rev=" + command_output(["git", "rev-parse", "HEAD"]),
        "--provenance", "source_digest=" + source_digest(),
        "--provenance", "rustc=" + command_output(["rustc", "--version"]),
    ]
    # Its own process group, so a timeout also stops the server it started.
    run = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
    try:
        code = run.wait(timeout=170)
    except BaseException as stopped:
        try:
            os.killpg(run.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        run.wait()
        if isinstance(stopped, subprocess.TimeoutExpired):
            fail("the run did not finish within 170 s")
        raise
    sys.exit(code)


if __name__ == "__main__":
    main()
