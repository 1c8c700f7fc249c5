#!/usr/bin/env python3
"""Builds the sparqlsim benchmark program and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: prune-output, prune-fixpoint, prune-outofcore, serve-mixed
(perfbench/README.md says what each measures). The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) under the
checkout root; the first run compiles, later runs only check that the
binary is up to date. The last line of stdout is the
program's result object. Exits non-zero when the sources are missing, the
build fails, or any output disagrees with the oracle.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("prune-output", "prune-fixpoint", "prune-outofcore", "serve-mixed")
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build() -> Path:
    """Configures and builds the program; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("perfbench: sparqlsim sources (CMakeLists.txt, src/) not found "
                 f"under {ROOT}")
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "perfbench"


def revision() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest() -> str:
    """SHA-256 over the library and benchmark sources: identifies the code
    measured even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="LUBM(1) + DBpedia-like(1), for the self-check")
    parser.add_argument("--corrupt-digest", action="store_true",
                        help="flip one oracle digest; the run must then fail")
    args = parser.parse_args()

    try:
        program = build()
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit(f"perfbench: build failed: {error}")
    command = [str(program), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--out-dir", str(build_dir() / "out"),
               "--revision", revision(), "--source-digest", source_digest()]
    if args.tiny:
        command.append("--tiny")
    if args.corrupt_digest:
        command.append("--corrupt-digest")
    sys.stdout.flush()
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: benchmark program exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
