#!/usr/bin/env python3
"""Checks perfbench results against the repository's speed floors.

    python3 tools/check_perf_floors.py <perfbench stdout>...

Each argument holds the stdout of one `python3 perfbench/run.py` run: its
`run_record` line names the workload, seed, trace mode and size, its last
line is the result. Every workload in TRACE needs a full-size (no --tiny)
seed-1 run in the trace mode that prints its FLOORS metrics, with every
correctness check passed. Prints each row's value, bound and margin (the
factor by which the value clears the bound); exits 1 on any failure.
"""
import json
import sys

# Workload -> the --trace mode that prints its rows' metrics.
TRACE = {"batch_pipeline": 1, "campaign": 0}

# (workload, metric) -> (unit, op, bound). A metric "a / b" is the ratio
# of two printed metrics; its unit is "unit of a / unit of b".
FLOORS = {
    # >= 2.0M records per CPU-second: seed 1 generates 997,357 records.
    ("batch_pipeline", "synth.generate_cpu_s"): ("s", "<=", 0.49),
    ("batch_pipeline", "dist.fit_points / dist.fit_cpu_s"):
        ("count / s", ">=", 3.5e6),
    ("batch_pipeline", "serve.events_per_s"): ("1/s", ">=", 200000),
    ("batch_pipeline", "serve.sharded_events_per_s"): ("1/s", ">=", 150000),
    # Median per pass over the same 997,357 rows: write_csv then read_csv.
    # The writer's floor is about 2x the slowest of three traced runs on 4
    # vCPUs (0.24 s, BENCH_20.json). The read runs in pieces on the pool,
    # so its floor follows the campaign row's rule: about 2x the slowest
    # traced change run pinned to one CPU (0.267 s; 4 vCPUs: 0.175 s,
    # BENCH_29.json), so a runner with no thread scaling still passes.
    ("batch_pipeline", "trace.write_csv_s"): ("s", "<=", 0.50),
    ("batch_pipeline", "trace.read_csv_s"): ("s", "<=", 0.60),
    # The index gathers its columns and sorts its posting lists on the
    # pool, so its floor follows the same rule: about 2x the slowest
    # traced change run pinned to one CPU (0.0242 s; 4 vCPUs: 0.0145-
    # 0.0169 s, BENCH_30.json).
    ("batch_pipeline", "trace.index_s"): ("s", "<=", 0.050),
    # Per pass over the same rows; about 2x the slowest of three traced
    # runs on 4 vCPUs: validate 0.047 s and hazard 0.092 s
    # (BENCH_29.json), repair 0.308 s (BENCH_21.json).
    ("batch_pipeline", "trace.validate_s"): ("s", "<=", 0.092),
    ("batch_pipeline", "analysis.repair_s"): ("s", "<=", 0.60),
    ("batch_pipeline", "analysis.hazard_s"): ("s", "<=", 0.18),
    # The lower of half the slowest change run pinned to one CPU (1.008M)
    # and a quarter of the slowest 4-thread one (3.06M), so a runner with
    # no thread scaling still passes (BENCH_27.json).
    ("campaign", "throughput_per_s"): ("1/s", ">=", 504000),
}


def load(path):
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    records = [line for line in lines if line.startswith("run_record ")]
    return json.loads(records[-1].split(" ", 1)[1]), json.loads(lines[-1])


def main(paths):
    problems, metrics = [], {}
    for path in paths:
        try:
            record, result = load(path)
        except (OSError, ValueError, IndexError) as e:
            problems.append(f"{path}: not a perfbench stdout ({e})")
            continue
        workload = record.get("workload")
        run = {key: record.get(key) for key in ("seed", "tiny", "trace")}
        want = {"seed": 1, "tiny": False, "trace": TRACE.get(workload)}
        if run != want or workload in metrics:
            problems.append(f"{path}: {workload} ran {run}, want {want} "
                            f"and one file per workload")
        if result.get("correct") is not True or result.get("failed") != 0:
            problems.append(f"{path}: {workload} failed a correctness check")
        metrics[workload] = result.get("metrics", {})
    problems += [f"{w}: no result file" for w in TRACE if w not in metrics]

    for (workload, metric), (unit, op, bound) in FLOORS.items():
        got = [metrics.get(workload, {}).get(name, {})
               for name in metric.split(" / ")]
        values = [g.get("value") for g in got]
        if [g.get("unit") for g in got] != unit.split(" / ") or not all(
                isinstance(v, (int, float)) and v > 0 for v in values):
            problems.append(f"{workload} {metric}: no {unit} value > 0")
            continue
        value = values[0] / values[1] if len(values) == 2 else values[0]
        ok = value >= bound if op == ">=" else value <= bound
        margin = value / bound if op == ">=" else bound / value
        print(f"{'ok  ' if ok else 'FAIL'} {workload} {metric} = "
              f"{value:,.7g} {unit}, bound {op} {bound:,.7g}, "
              f"margin {margin:.2f}x")
        if not ok:
            problems.append(f"{workload} {metric} misses its bound")
    for problem in problems:
        print("floor check failed:", problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
