#!/usr/bin/env python3
"""Repeat the benchmark over seeds, summarise spreads, compare result sets
and write the baseline.

    python3 perfbench/sweep.py run --seeds 1-10 [--workloads a,b] [--trace 1] --out r.json
    python3 perfbench/sweep.py compare before.json after.json
    python3 perfbench/sweep.py baseline untraced.json traced.json --out perfbench/baseline.json

`run` runs run.py once per workload and seed, one after another, prints
every metric of every workload by name and unit with its median,
quartiles and spread (interquartile distance over median) against the
metric's bound, and exits 1 if any item failed its check. `compare`
refuses result sets whose kernel lanes differ, prints each metric's change
of median against its bound, and checks that exact counts agree between
runs of the same workload and seed. `baseline` merges an untraced and a
traced set into the seed baseline.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RECORDS = ROOT / ".perfbench" / "sweep"
RUN_TIMEOUT = 900

# Metrics that are counts of work, not times: they must repeat exactly for
# a given workload and seed.
EXACT_SUFFIXES = (".calls", ".pivot_ops", "bits.max")


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def is_exact(name):
    return name.endswith(EXACT_SUFFIXES)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_workload(records):
    out = {}
    for r in records:
        out.setdefault(r["workload"], []).append(r)
    return out


def metric_stats(records):
    """{metric: {median, q1, q3, spread, unit, n}} over a list of records."""
    names = records[0]["result"]["metrics"]
    out = {}
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in records]
        q1, q2, q3 = quartiles(values)
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / q2 if q2 else 0.0,
                     "unit": records[0]["result"]["metrics"][name]["unit"],
                     "n": len(values)}
    return out


def cmd_run(args):
    RECORDS.mkdir(parents=True, exist_ok=True)
    seconds = spec()["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec()["workloads"]])
    records, bad = [], 0
    for name in workloads:
        for seed in parse_seeds(args.seeds):
            out = RECORDS / f"{name}-{seed}-t{args.trace}.json"
            out.unlink(missing_ok=True)
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(args.trace), "--out", str(out)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=RUN_TIMEOUT)
            if not out.is_file():
                print(f"{name} seed {seed}: no result (exit "
                      f"{proc.returncode})\n{proc.stderr}")
                bad += 1
                continue
            record = json.loads(out.read_text())
            record["exit"] = proc.returncode
            records.append(record)
            res = record["result"]
            bad += proc.returncode != 0 or not res["correct"]
            print(f"{name} seed {seed}: exit {proc.returncode}, "
                  f"{res['failed']}/{res['attempted']} failed", flush=True)
    Path(args.out).write_text(json.dumps(records, indent=1) + "\n")
    summarise(records)
    return 1 if bad else 0


def summarise(records):
    bounds = {m["name"]: m.get("bound") for m in spec()["end_to_end"]}
    for name, recs in by_workload(records).items():
        failed = sum(r["result"]["failed"] for r in recs)
        attempted = sum(r["result"]["attempted"] for r in recs)
        print(f"== {name}: {len(recs)} runs, fail_ratio "
              f"{failed / attempted:.6g} ({failed}/{attempted})")
        for metric, s in metric_stats(recs).items():
            bound = bounds.get(metric)
            verdict = ""
            if bound is not None:
                verdict = (f"bound {bound}  "
                           f"{'ok' if s['spread'] < bound / 3 else 'WIDE'}")
            print(f"  {metric:34s} {s['median']:12.6g} {s['unit']:5s} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                  f"spread {s['spread']:.4f}  {verdict}")


def load(path):
    return json.loads(Path(path).read_text())


def lanes_of(records):
    return {r["stamp"]["kernel_lane"] for r in records}


def cmd_compare(args):
    before, after = load(args.before), load(args.after)
    lanes = lanes_of(before) | lanes_of(after)
    if len(lanes) > 1:
        print(f"refusing to compare results from different kernel lanes: "
              f"{sorted(lanes)}")
        return 2
    declared = {m["name"]: m for m in spec()["end_to_end"] + spec()["per_layer"]}
    worse = 0
    a_by, b_by = by_workload(before), by_workload(after)
    for name in sorted(set(a_by) & set(b_by)):
        print(f"== {name}")
        sa, sb = metric_stats(a_by[name]), metric_stats(b_by[name])
        for metric in sorted(set(sa) & set(sb)):
            ma, mb = sa[metric]["median"], sb[metric]["median"]
            change = (mb - ma) / ma if ma else 0.0
            bound = declared.get(metric, {}).get("bound")
            flag = ""
            if bound is not None:
                sign = -1 if declared[metric]["better"] == "higher" else 1
                flag = "WORSE" if sign * change > bound else "ok"
                worse += flag == "WORSE"
            print(f"  {metric:34s} {ma:12.6g} -> {mb:12.6g} "
                  f"({100 * change:+.2f}%) {flag}")
    mismatched = 0
    for ra in before:
        for rb in after:
            if (ra["workload"], ra["stamp"]["seed"]) != \
                    (rb["workload"], rb["stamp"]["seed"]):
                continue
            for metric, m in ra["result"]["metrics"].items():
                other = rb["result"]["metrics"].get(metric)
                if is_exact(metric) and other and other["value"] != m["value"]:
                    mismatched += 1
                    print(f"exact count differs: {ra['workload']} seed "
                          f"{ra['stamp']['seed']} {metric} {m['value']} vs "
                          f"{other['value']}")
    print(f"{worse} end-to-end medians worse than their bound; "
          f"{mismatched} exact counts differ")
    return 1 if worse or mismatched else 0


def cmd_baseline(args):
    untraced, traced = load(args.untraced), load(args.traced)
    if len(lanes_of(untraced) | lanes_of(traced)) > 1:
        print("refusing to merge results from different kernel lanes")
        return 2
    s = spec()
    why = {w["name"]: w["why"] for w in s["workloads"]}
    t_by = by_workload(traced)
    workloads = {}
    for name, recs in by_workload(untraced).items():
        e2e = metric_stats(recs)
        layers = metric_stats(t_by[name])
        # Overhead: traced against untraced wall_s as measured (traced runs
        # are not scaled by the calibration), on the traced seeds.
        seeds = {r["stamp"]["seed"] for r in t_by[name]}
        traced_wall = layers["trace.wall_s"]["median"]
        wall = statistics.median(r["measured"]["wall_s"] for r in recs
                                 if r["stamp"]["seed"] in seeds)
        self_s = {}
        for r in t_by[name]:
            for span, row in r["layers"].items():
                self_s.setdefault(span, []).append(row["self_s"])
        workloads[name] = {
            "why": why[name],
            "item_s.p50": statistics.median(
                r["computed"]["item_s.p50"] for r in recs),
            "seeds": sorted(r["stamp"]["seed"] for r in recs),
            "fail_ratio": sum(r["result"]["failed"] for r in recs)
            / sum(r["result"]["attempted"] for r in recs),
            "end_to_end": e2e,
            "per_layer": {k: v["median"] for k, v in layers.items()},
            "self_s": {k: statistics.median(v)
                       for k, v in sorted(self_s.items())},
            "tracing_overhead_s": traced_wall - wall,
            "tracing_overhead_share": (traced_wall - wall) / wall,
            "traced_seeds": sorted(seeds),
        }
    stamp = dict(untraced[0]["stamp"])
    stamp.pop("seed")
    baseline = {
        "stamp": stamp,
        "run_seconds": s["run_seconds"],
        "exact_counts": {
            "rule": "metrics ending in " + ", ".join(EXACT_SUFFIXES)
                    + " are counts of work that must repeat exactly for a "
                      "given workload and seed",
            "metrics": sorted(m["name"] for m in s["per_layer"]
                              if is_exact(m["name"])),
        },
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--seeds", default="1-10", help="N or LO-HI")
    r.add_argument("--workloads", default=None, help="comma-separated")
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--out", required=True)
    r.set_defaults(fn=cmd_run)
    c = sub.add_parser("compare")
    c.add_argument("before")
    c.add_argument("after")
    c.set_defaults(fn=cmd_compare)
    b = sub.add_parser("baseline")
    b.add_argument("untraced")
    b.add_argument("traced")
    b.add_argument("--out", required=True)
    b.set_defaults(fn=cmd_baseline)
    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
