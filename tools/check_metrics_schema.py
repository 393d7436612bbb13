#!/usr/bin/env python3
"""Validates an hpcfail metrics JSON dump against schema version 2.

Usage: check_metrics_schema.py FILE [--require-stage STAGE ...]
           [--require-gauge NAME ...] [--require-counter NAME ...]

Checks the layout emitted by obs::to_json (schema "hpcfail.metrics",
schema_version 2): exactly the top-level keys, per-entry shapes and
histogram bucket ordering. --require-stage S asserts that the stage timer
histogram "S.seconds" exists (obs::ScopedTimer records one per stage);
--require-gauge / --require-counter assert that a specific metric was
recorded at all (e.g. the "dataset.bytes" storage gauge or the
"fit.suffstat_reuse" counter), catching instrumentation points that
silently fall out of the pipeline. Exits 1 with a message on the first
violation. Stdlib only, so CI can run it anywhere python3 exists.
"""
import json
import sys


def fail(message):
    print(f"metrics schema violation: {message}", file=sys.stderr)
    sys.exit(1)


def check_named_values(entries, key, value_type):
    if not isinstance(entries, list):
        fail(f"'{key}' must be an array")
    for entry in entries:
        if not isinstance(entry, dict):
            fail(f"'{key}' entries must be objects")
        if not isinstance(entry.get("name"), str) or not entry["name"]:
            fail(f"'{key}' entry missing a non-empty string 'name'")
        if not isinstance(entry.get("value"), value_type):
            fail(f"'{key}' entry '{entry['name']}' has a non-numeric value")


def check_histograms(histograms):
    if not isinstance(histograms, list):
        fail("'histograms' must be an array")
    for h in histograms:
        name = h.get("name")
        if not isinstance(name, str) or not name:
            fail("histogram missing a non-empty string 'name'")
        for field in ("count", "sum", "min", "max"):
            if not isinstance(h.get(field), (int, float)):
                fail(f"histogram '{name}' missing numeric '{field}'")
        buckets = h.get("buckets")
        if not isinstance(buckets, list):
            fail(f"histogram '{name}' missing 'buckets' array")
        total = 0
        previous_bound = float("-inf")
        for bucket in buckets:
            le = bucket.get("le")
            count = bucket.get("count")
            if not isinstance(le, (int, float)) or not isinstance(count, int):
                fail(f"histogram '{name}' has a malformed bucket")
            if le <= previous_bound:
                fail(f"histogram '{name}' bucket bounds not ascending")
            previous_bound = le
            total += count
        if total != h["count"]:
            fail(f"histogram '{name}' bucket counts {total} != count "
                 f"{h['count']}")


def main():
    args = sys.argv[1:]
    if not args:
        fail("usage: check_metrics_schema.py FILE [--require-stage STAGE ...]")
    path = args[0]
    required_stages = []
    required_gauges = []
    required_counters = []
    i = 1
    while i < len(args):
        if args[i] == "--require-stage" and i + 1 < len(args):
            required_stages.append(args[i + 1])
            i += 2
        elif args[i] == "--require-gauge" and i + 1 < len(args):
            required_gauges.append(args[i + 1])
            i += 2
        elif args[i] == "--require-counter" and i + 1 < len(args):
            required_counters.append(args[i + 1])
            i += 2
        else:
            fail(f"unknown argument '{args[i]}'")

    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {path}: {e}")

    if doc.get("schema") != "hpcfail.metrics":
        fail(f"schema is {doc.get('schema')!r}, expected 'hpcfail.metrics'")
    if doc.get("schema_version") != 2:
        fail(f"schema_version is {doc.get('schema_version')!r}, expected 2")
    keys = {"schema", "schema_version", "counters", "gauges", "histograms"}
    if set(doc) != keys:
        fail(f"top-level keys are {sorted(doc)}, expected {sorted(keys)}")

    check_named_values(doc["counters"], "counters", int)
    check_named_values(doc["gauges"], "gauges", (int, float))
    check_histograms(doc["histograms"])

    histogram_names = {h["name"] for h in doc["histograms"]}
    for stage in required_stages:
        if f"{stage}.seconds" not in histogram_names:
            fail(f"required stage histogram '{stage}.seconds' not present")
    gauge_names = {g["name"] for g in doc["gauges"]}
    for gauge in required_gauges:
        if gauge not in gauge_names:
            fail(f"required gauge '{gauge}' not present")
    counter_names = {c["name"] for c in doc["counters"]}
    for counter in required_counters:
        if counter not in counter_names:
            fail(f"required counter '{counter}' not present")

    print(f"{path}: schema v{doc['schema_version']} OK "
          f"({len(doc['counters'])} counters, {len(doc['gauges'])} gauges, "
          f"{len(doc['histograms'])} histograms)")


if __name__ == "__main__":
    main()
