#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Run it from the repository root. For every workload in BENCHMARK.json it
runs perfbench/run.py at tiny input sizes (--tiny), untraced and traced,
and checks that the result line is well formed, every correctness check
passed, and every metric BENCHMARK.json names is printed with its unit.
Then it runs each workload with --corrupt, which damages one output (an
altered CSV record, a dropped event, a phantom event, an altered run
result), and checks that the matching correctness check fails: exit code
1 and "correct": false. Last, it checks that the benchmark refuses to run
(nonzero exit, no result line) in a directory holding only BENCHMARK.json
and the benchmark's own files. Exits 0 when all of that holds.
"""
import json
import os
import shutil
import subprocess
import sys

RUN = ["python3", "perfbench/run.py"]


def run(args, cwd=None):
    return subprocess.run(RUN + args, cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def result_of(done):
    lines = done.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, table in (("0", "end_to_end"), ("1", "per_layer")):
            label = f"{workload} --trace {trace}"
            done = run(["--workload", workload, "--seed", "3", "--seconds",
                        "1", "--trace", trace, "--tiny"])
            result = result_of(done)
            expect(done.returncode == 0 and result is not None and
                   result["correct"] and result["failed"] == 0 and
                   result["attempted"] >= 1, label + " passes its checks")
            if result is None:
                sys.stderr.write(done.stderr[-2000:])
                continue
            printed = result["metrics"]
            for metric in spec[table]:
                name = metric["name"]
                got = printed.get(name)
                expect(got is not None and got.get("unit") == metric["unit"]
                       and isinstance(got.get("value"), (int, float)),
                       f"{label} prints {name} in {metric['unit']}")
            if trace == "0":
                for name, got in printed.items():
                    expect(got["value"] > 0, f"{label} {name} is nonzero")

        done = run(["--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", "0", "--tiny", "--corrupt"])
        result = result_of(done)
        expect(done.returncode == 1 and result is not None and
               not result["correct"] and result["failed"] >= 1,
               f"{workload} --corrupt fails its correctness check")

    # Only BENCHMARK.json and the benchmark's own files: no library to
    # build, so no result.
    bare = os.path.join(".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(path, os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run(["--workload", spec["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0"], cwd=bare)
    expect(done.returncode != 0 and result_of(done) is None,
           "refuses to run without the library sources")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
