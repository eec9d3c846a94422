#!/usr/bin/env python3
"""Builds and runs the forest-perfbench benchmark from a checkout's root.

Usage (from the root of a checkout of this repository):

    python3 crates/perfbench/run.py --workload <cold_mesh|cold_random|churn|serve>
        --seed N --seconds S --trace <0|1>

It builds the `forest-serve` binary (in the repository's workspace) and the
benchmark package beside this file, both in release mode, into
$CARGO_TARGET_DIR (default `.bench_build`), then runs one measurement.
Everything the run writes lands under `.bench_work/` in the checkout. The
last line of standard output is the benchmark's JSON result; a traced run's
chrome-trace export must also pass `scripts/check_trace.py`, or the result
is marked incorrect. Exit code 0 only when every output check passed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ("cold_mesh", "cold_random", "churn", "serve")
# A run measures for --seconds plus set-up and checks; anything past this
# is a hang.
RUN_GRACE_SECONDS = 120


def fail(msg: str, code: int = 2) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return code


def cargo_build(args, target_dir: Path) -> bool:
    cmd = ["cargo", "build", "--release", "--offline", "-q",
           "--target-dir", str(target_dir)] + args
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode == 0


def rustc_version() -> str:
    try:
        out = subprocess.run(["rustc", "--version"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def commit_id() -> str:
    """The git commit, or "unknown" outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def pin_to_one_cpu() -> None:
    """Keeps the run and the server it starts on one CPU.

    Serve's latencies are dominated by thread wake-ups; across two CPUs of a
    shared host each wake-up may wait for the other CPU to be scheduled, and
    the write median moved by 40% between runs of identical code. On one CPU
    it moved by 5%. The load (two client threads, two server threads, a few
    percent busy) fits one core.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        return fail("--seed must be >= 0 and --seconds >= 1")

    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "server").is_dir():
        return fail(f"{ROOT} is not a checkout of the repository")
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target_dir.is_absolute():
        target_dir = ROOT / target_dir
    if not cargo_build(["-p", "forest-serve", "--bin", "forest-serve"], target_dir):
        return fail("building forest-serve failed")
    if not cargo_build(["--manifest-path", str(HERE / "Cargo.toml")], target_dir):
        return fail("building the benchmark failed")

    work_root = ROOT / ".bench_work"
    work = work_root / f"{args.workload}-{os.getpid()}"
    trace_out = work_root / f"{args.workload}.trace.json"
    cmd = [
        str(target_dir / "release" / "forest-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", str(work),
        "--server-bin", str(target_dir / "release" / "forest-serve"),
        "--rustc", rustc_version(),
        "--commit", commit_id(),
        "--host-cpus", str(os.cpu_count() or 0),
    ]
    if args.trace:
        cmd += ["--trace-out", str(trace_out)]
    # Own process group, so a hung run can be stopped with its server.
    pin = pin_to_one_cpu if args.workload == "serve" else None
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True, preexec_fn=pin)
    try:
        stdout, _ = proc.communicate(timeout=args.seconds + RUN_GRACE_SECONDS)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        return fail("the run did not finish in time")
    shutil.rmtree(work, ignore_errors=True)

    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(stdout)
        return fail(f"no result (exit code {proc.returncode})")
    code = proc.returncode
    if args.trace:
        checker = ROOT / "scripts" / "check_trace.py"
        check = subprocess.run([sys.executable, str(checker), str(trace_out)],
                               cwd=ROOT, capture_output=True, text=True)
        accepted = check.returncode == 0
        lines.insert(-1, "  " + (check.stdout or check.stderr).strip())
        result["attempted"] += 1
        if not accepted:
            result["failed"] += 1
            result["correct"] = False
            code = code or 1
    lines[-1] = json.dumps(result)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
