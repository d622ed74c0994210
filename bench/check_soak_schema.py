#!/usr/bin/env python3
"""CI validator for the BENCH_soak.json capacity-soak artifact.

Checks that a file produced by `bench_soak` conforms to soak schema
version 1 (see bench/bench_soak.cc and DESIGN.md section 4k):

  * every top-level section is present with the right JSON type (config,
    load, resources, verdicts, slo, capacity_over_wire,
    accountant_overhead, series);
  * every retained series has strictly increasing timestamps and at
    least --min-points points for the resource.* series the growth
    verdicts were fitted over;
  * verdict consistency: the class token is one of insufficient-data /
    flat / bounded / linear-growth; linear-growth implies a positive
    fitted slope; a finite time_to_budget_sec implies linear-growth with
    a declared budget above the last value;
  * the honesty gates the capacity plane exists for, chosen by the
    artifact's own config.fresh_permille. With fresh keys (above 0), the
    checkpoint arena bytes and retained-version series classify as
    linear-growth (every new key adds an entry and its versions) with a
    finite time-to-budget where a budget is declared. Over a fixed
    keyspace (0), every resource.checkpoint.* series classifies flat or
    bounded: versions past max_versions, their payload spans and their
    seq-index pairs are all given back. Either way the net plane's
    transient outbuf series classifies flat or bounded;
  * the SLO report carries every configured window for every target;
  * CAPACITY resolved over the wire (capacity_over_wire.ok, with cell
    and verdict counts > 0);
  * the accountant's end-to-end on/off throughput ratio is at most
    --max-accountant-ratio (default 1.08, the same ceiling
    bench/perf_baseline.json puts on the other observability planes).

Optional gates:

  --min-duration-s S        the run soaked at least S seconds (the
                            committed artifact uses 300; CI smoke ~60)
  --min-points N            per-fitted-series point floor (default 16)
  --max-accountant-ratio R  accountant on/off ceiling (default 1.08)

Exits 1 with a path-qualified message on the first violation.

Usage: check_soak_schema.py [BENCH_soak.json] [gates...]
"""

import json
import sys

NUMBER = (int, float)

CLASSES = ("insufficient-data", "flat", "bounded", "linear-growth")

# Series a run with fresh keys must classify, and how. The arena and
# version series grow with the keyspace until checkpoint GC retires
# entries of dead keys; the outbuf series is the claim that growth lives in
# the checkpoint plane, not the serving plane.
MUST_GROW = (
    "resource.checkpoint.arena.bytes",
    "resource.checkpoint.retained.versions",
)
MUST_NOT_GROW = ("resource.net.outbuf.bytes",)
# Over a fixed keyspace (fresh_permille 0) every series under this prefix
# must classify flat or bounded.
CHECKPOINT_PREFIX = "resource.checkpoint."


class SchemaError(Exception):
    pass


def expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise SchemaError(f"{path}: {message}")


def check_load(load, path: str) -> None:
    expect(isinstance(load, dict), path, "must be an object")
    for key in ("offered_qps_target", "connections", "offered_qps",
                "achieved_qps", "sent", "received", "ok", "errors",
                "dropped"):
        expect(key in load, path, f"missing key '{key}'")
        expect(isinstance(load[key], NUMBER), f"{path}.{key}",
               "must be a number")
    latency = load.get("latency_us")
    expect(isinstance(latency, dict), f"{path}.latency_us",
           "must be an object")
    for key in ("mean", "p50", "p95", "p99", "p999", "max"):
        expect(isinstance(latency.get(key), NUMBER),
               f"{path}.latency_us.{key}", "must be a number")


def check_resources(resources, path: str) -> None:
    expect(isinstance(resources, dict), path, "must be an object")
    expect(isinstance(resources.get("enabled"), bool), f"{path}.enabled",
           "must be a bool")
    cells = resources.get("cells")
    expect(isinstance(cells, list) and cells, f"{path}.cells",
           "must be a non-empty array")
    for i, cell in enumerate(cells):
        cpath = f"{path}.cells[{i}]"
        expect(isinstance(cell, dict), cpath, "must be an object")
        expect(isinstance(cell.get("name"), str), f"{cpath}.name",
               "must be a string")
        expect(isinstance(cell.get("unit"), str), f"{cpath}.unit",
               "must be a string")
        for key in ("value", "budget"):
            expect(isinstance(cell.get(key), NUMBER), f"{cpath}.{key}",
                   "must be a number")


def check_verdicts(verdicts, path: str) -> dict:
    expect(isinstance(verdicts, list) and verdicts, path,
           "must be a non-empty array")
    by_series = {}
    for i, verdict in enumerate(verdicts):
        vpath = f"{path}[{i}]"
        expect(isinstance(verdict, dict), vpath, "must be an object")
        for key in ("series", "class"):
            expect(isinstance(verdict.get(key), str), f"{vpath}.{key}",
                   "must be a string")
        for key in ("slope_per_sec", "first_value", "last_value", "budget",
                    "time_to_budget_sec", "points", "window_ns"):
            expect(isinstance(verdict.get(key), NUMBER), f"{vpath}.{key}",
                   "must be a number")
        cls = verdict["class"]
        expect(cls in CLASSES, f"{vpath}.class",
               f"'{cls}' is not one of {CLASSES}")
        if cls == "linear-growth":
            expect(verdict["slope_per_sec"] > 0, f"{vpath}.slope_per_sec",
                   "linear-growth verdict with non-positive slope")
        ttb = verdict["time_to_budget_sec"]
        if ttb >= 0:
            expect(cls == "linear-growth", f"{vpath}.time_to_budget_sec",
                   "finite forecast on a non-linear-growth verdict")
            expect(verdict["budget"] > verdict["last_value"], f"{vpath}",
                   "finite forecast without headroom to a declared budget")
        by_series[verdict["series"]] = verdict
    return by_series


def expect_not_growing(by_series: dict, name: str, path: str) -> None:
    verdict = by_series[name]
    expect(verdict["class"] in ("flat", "bounded"), f"{path}[{name}]",
           f"must classify flat or bounded (got '{verdict['class']}', "
           f"{verdict['slope_per_sec']:+.0f}/s)")


def check_growth_gates(by_series: dict, path: str,
                       fresh_permille: float) -> None:
    for name in MUST_NOT_GROW:
        expect(name in by_series, path, f"no verdict for '{name}'")
        expect_not_growing(by_series, name, path)
    if fresh_permille == 0:
        checkpoint = [name for name in by_series
                      if name.startswith(CHECKPOINT_PREFIX)]
        expect(checkpoint, path, f"no verdict for '{CHECKPOINT_PREFIX}*'")
        for name in checkpoint:
            expect_not_growing(by_series, name, path)
        return
    for name in MUST_GROW:
        expect(name in by_series, path, f"no verdict for '{name}'")
        verdict = by_series[name]
        expect(verdict["class"] == "linear-growth", f"{path}[{name}]",
               f"must classify linear-growth (got '{verdict['class']}'); "
               "the committed soak is the before-picture for checkpoint GC")
        if verdict["budget"] > 0:
            expect(verdict["time_to_budget_sec"] > 0, f"{path}[{name}]",
                   "declared budget but no finite time-to-budget forecast")


def check_slo(slo, path: str) -> None:
    expect(isinstance(slo, dict), path, "must be an object")
    targets = slo.get("targets")
    expect(isinstance(targets, list) and targets, f"{path}.targets",
           "must be a non-empty array")
    for i, target in enumerate(targets):
        tpath = f"{path}.targets[{i}]"
        expect(isinstance(target, dict), tpath, "must be an object")
        for key in ("histogram", "label"):
            expect(isinstance(target.get(key), str), f"{tpath}.{key}",
                   "must be a string")
        for key in ("objective", "threshold_ns", "worst_burn_rate"):
            expect(isinstance(target.get(key), NUMBER), f"{tpath}.{key}",
                   "must be a number")
        expect(isinstance(target.get("breached"), bool), f"{tpath}.breached",
               "must be a bool")
        windows = target.get("windows")
        expect(isinstance(windows, list) and windows, f"{tpath}.windows",
               "must be a non-empty array")
        for j, window in enumerate(windows):
            wpath = f"{tpath}.windows[{j}]"
            for key in ("window_sec", "total", "bad", "bad_fraction",
                        "burn_rate"):
                expect(isinstance(window.get(key), NUMBER), f"{wpath}.{key}",
                       "must be a number")
            expect(isinstance(window.get("complete"), bool),
                   f"{wpath}.complete", "must be a bool")


def check_series(series, path: str, fitted: set, min_points: int) -> None:
    expect(isinstance(series, list) and series, path,
           "must be a non-empty array")
    seen = set()
    for i, entry in enumerate(series):
        spath = f"{path}[{i}]"
        expect(isinstance(entry, dict), spath, "must be an object")
        name = entry.get("name")
        expect(isinstance(name, str), f"{spath}.name", "must be a string")
        seen.add(name)
        expect(isinstance(entry.get("kind"), str), f"{spath}.kind",
               "must be a string")
        points = entry.get("points")
        expect(isinstance(points, list), f"{spath}.points",
               "must be an array")
        last_t = None
        for j, point in enumerate(points):
            ppath = f"{spath}.points[{j}]"
            expect(isinstance(point, dict), ppath, "must be an object")
            for key in ("t_ns", "v"):
                expect(isinstance(point.get(key), NUMBER), f"{ppath}.{key}",
                       "must be a number")
            if last_t is not None:
                expect(point["t_ns"] > last_t, f"{ppath}.t_ns",
                       "timestamps must be strictly increasing")
            last_t = point["t_ns"]
        if name in fitted:
            expect(len(points) >= min_points, f"{spath}.points",
                   f"fitted series '{name}' retained only {len(points)} "
                   f"points (< {min_points})")
    for name in fitted:
        expect(name in seen, path, f"fitted series '{name}' not retained")


def check_wire(wire, path: str) -> None:
    expect(isinstance(wire, dict), path, "must be an object")
    expect(wire.get("ok") is True, f"{path}.ok",
           "CAPACITY did not resolve over the wire")
    for key in ("cells", "verdicts"):
        expect(isinstance(wire.get(key), NUMBER) and wire[key] > 0,
               f"{path}.{key}", "must be a positive count")


def check_overhead(overhead, path: str, max_ratio: float) -> None:
    expect(isinstance(overhead, dict), path, "must be an object")
    for key in ("accountant_off_ops_per_sec", "accountant_on_ops_per_sec",
                "on_off_ratio"):
        expect(isinstance(overhead.get(key), NUMBER), f"{path}.{key}",
               "must be a number")
    ratio = overhead["on_off_ratio"]
    expect(ratio <= max_ratio, f"{path}.on_off_ratio",
           f"accountant on/off slowdown {ratio:.3f} exceeds {max_ratio}")


def main() -> int:
    args = sys.argv[1:]
    path = "BENCH_soak.json"
    min_duration = 0.0
    min_points = 16
    max_ratio = 1.08
    i = 0
    while i < len(args):
        arg = args[i]
        if arg == "--min-duration-s":
            i += 1
            min_duration = float(args[i])
        elif arg == "--min-points":
            i += 1
            min_points = int(args[i])
        elif arg == "--max-accountant-ratio":
            i += 1
            max_ratio = float(args[i])
        else:
            path = arg
        i += 1

    with open(path) as f:
        doc = json.load(f)

    try:
        expect(doc.get("bench") == "soak", "bench", "must be 'soak'")
        expect(doc.get("schema_version") == 1, "schema_version",
               "must be 1")
        config = doc.get("config")
        expect(isinstance(config, dict), "config", "must be an object")
        for key in ("duration_s", "target_qps", "fresh_permille",
                    "arena_budget_bytes", "version_budget"):
            expect(isinstance(config.get(key), NUMBER), f"config.{key}",
                   "must be a number")
        expect(config["duration_s"] >= min_duration, "config.duration_s",
               f"soaked {config['duration_s']}s, gate requires "
               f">= {min_duration}s")
        check_load(doc.get("load"), "load")
        check_resources(doc.get("resources"), "resources")
        by_series = check_verdicts(doc.get("verdicts"), "verdicts")
        check_growth_gates(by_series, "verdicts", config["fresh_permille"])
        check_slo(doc.get("slo"), "slo")
        fitted = {name for name, verdict in by_series.items()
                  if verdict["class"] != "insufficient-data"}
        check_series(doc.get("series"), "series", fitted, min_points)
        check_wire(doc.get("capacity_over_wire"), "capacity_over_wire")
        check_overhead(doc.get("accountant_overhead"), "accountant_overhead",
                       max_ratio)
    except SchemaError as error:
        print(f"FAIL {path}: {error}")
        return 1

    if config["fresh_permille"] == 0:
        growth = "every checkpoint series flat or bounded over a fixed keyspace"
    else:
        growth = "unbounded growth confirmed in " + ", ".join(
            f"{name} (+{by_series[name]['slope_per_sec']:.0f}/s, "
            f"budget in {by_series[name]['time_to_budget_sec']:.0f}s)"
            for name in MUST_GROW)
    print(f"OK {path}: {len(by_series)} verdicts over "
          f"{config['duration_s']}s; {growth}; accountant ratio "
          f"{doc['accountant_overhead']['on_off_ratio']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
