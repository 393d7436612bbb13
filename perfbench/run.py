#!/usr/bin/env python3
"""Builds the hpcfail benchmark binary from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> \\
        --seconds <s> --trace <0|1>

Run it from the repository root. The binary (perfbench/cpp, linked
against the library built from src/) is configured and built with CMake
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. Build
output goes to stderr, so the last line of stdout is the binary's JSON
result. Every other argument is passed to the binary unchanged; see
perfbench/README.md for the workloads and metrics.

Exit codes: the binary's own (0 ok, 1 a correctness check failed), or 2
without a result when the sources are missing or the build fails.
"""
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def commit_id(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir, env):
    """Configures (once) and builds the binary; returns its path or None."""
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env)
        except OSError as e:
            log("cannot run", cmd[0] + ":", e)
            return None
        if done.returncode != 0:
            log("build step failed:", " ".join(cmd))
            return None
    return os.path.join(build_dir, "perfbench")


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("no library sources at ./src; run from the repository root")
        return 2
    build_dir = os.path.abspath(
        os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                     "perfbench"))
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)

    binary = build(build_dir, env)
    if binary is None:
        return 2
    env["PERFBENCH_COMMIT"] = commit_id(root)
    args = [binary] + sys.argv[1:] + ["--out-dir",
                                      os.path.join(build_dir, "runs")]
    child = subprocess.Popen(args, env=env)

    def forward(signum, _frame):
        child.send_signal(signum)

    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, forward)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
