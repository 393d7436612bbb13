#!/usr/bin/env python3
"""Records one baseline run of every workload into perfbench/baseline.json.

    python3 perfbench/record_baseline.py [--seed N]

Run it from the repository root. For each workload in BENCHMARK.json it
runs perfbench/run.py once untraced and once traced, with the
run_seconds of BENCHMARK.json, and stores each run's record (machine,
build, commit) and result line. Exits 1 if any run fails its checks.
"""
import argparse
import json
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    runs = []
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            done = subprocess.run(
                ["python3", "perfbench/run.py", "--workload", workload,
                 "--seed", str(args.seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", trace],
                capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            record = next((json.loads(line.split(" ", 1)[1]) for line in lines
                           if line.startswith("run_record ")), None)
            result = json.loads(lines[-1]) if lines else None
            ok = ok and done.returncode == 0
            runs.append({"record": record, "result": result})
            print(workload, "trace", trace, "exit", done.returncode,
                  file=sys.stderr, flush=True)
    with open("perfbench/baseline.json", "w") as f:
        json.dump({"runs": runs}, f, indent=1)
        f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
