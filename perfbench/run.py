#!/usr/bin/env python3
"""Builds the `report` binary and the perfbench harness from source, then
runs one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. Builds go to $CARGO_TARGET_DIR (default
`.bench_build`); journals, port files and traces go to `.bench_out`.
Compiler output goes to standard error, so the harness's result stays
the last line of standard output. Exits non-zero, printing no result,
when the sources are missing or a build fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(args):
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet"] + args,
        cwd=ROOT,
        stdout=sys.stderr,
        check=True,
    )


def commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
    except OSError:
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print(f"no Cargo.toml at {ROOT}: run from a full checkout", file=sys.stderr)
        return 1
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    os.environ["CARGO_TARGET_DIR"] = target
    try:
        build(["-p", "ewhoring-bench", "--bin", "report"])
        build(["--manifest-path", os.path.join("perfbench", "Cargo.toml")])
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--report-bin",
        os.path.join(release, "report"),
        "--out-dir",
        os.path.join(ROOT, ".bench_out"),
        "--commit",
        commit(),
    ]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
