#!/usr/bin/env python3
"""Benchmark of the buckysob package: one workload, one seed, one run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 35 --trace 0

The package is imported from ``src/`` of the checkout; nothing is built or
installed. One process, one caller, closed loop: a pass runs every item of
the workload once, and passes repeat until the next one would end after
``--seconds``. Every output is checked exactly.

With ``--trace 0`` the run reports the end-to-end metrics declared in
BENCHMARK.json; set-up time is the median over fresh processes, each timed
from importing the package to the workload's inputs being built. Times are
in reference seconds: a fixed calibration loop runs before every item (and
after each set-up), and measured seconds are scaled by
CALIBRATION_REFERENCE_S over the run's median calibration time, so that a
shared host running faster or slower from one run to the next does not
show as a change. The measured seconds are printed too. With ``--trace 1``
the run wraps the package's public functions (see tracing.py), skips the
calibration and reports the per-layer metrics in measured seconds, plus a
table of each layer's self time. Human-readable lines come first; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.

Exit codes: 0 every item correct, 1 some item failed its check, 2 the run
could not be made (no package source, ``python -O``, bad arguments).
"""

import os

# One core budget for numpy's pools, set before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
SETUP_REPEATS = 7

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{bench!r}, {src!r}]
import pathlib, statistics, workloads
workloads.WORKLOADS[{name!r}]({seed}, workdir=pathlib.Path({workdir!r}))
setup = time.perf_counter() - t0
print(setup, statistics.median(workloads.calibrate() for _ in range(3)))
"""


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None,
                    help="also write the full record (stamp, samples, "
                         "layer table) to this JSON file")
    ap.add_argument("--corrupt", action="store_true",
                    help="negative control: shift one expected value by "
                         "1/10^6 so that items must fail")
    return ap.parse_args(argv)


def load_spec():
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    return spec


def import_package():
    if not (SRC / "buckysob" / "__init__.py").is_file():
        fail(f"no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import buckysob
    if not Path(buckysob.__file__).resolve().is_relative_to(SRC):
        fail(f"buckysob imported from {buckysob.__file__}, not {SRC}")
    return buckysob


def stamp(buckysob, seed):
    """What a result must share with another before the two are compared."""
    import numpy
    return {"kernel_lane": buckysob.KERNEL_LANE,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "seed": seed}


def measure_setup(name, seed, reference):
    """Medians over fresh processes of the seconds from import to inputs
    built: (in reference seconds, as measured)."""
    code = SETUP_CODE.format(bench=str(BENCH), src=str(SRC), name=name,
                             seed=seed, workdir=str(WORKDIR))
    scaled, measured = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"set-up process failed:\n{proc.stderr}")
        setup, cal = map(float, proc.stdout.split()[-2:])
        scaled.append(setup * reference / cal)
        measured.append(setup)
    return statistics.median(scaled), statistics.median(measured)


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_passes(workload, tracer, seconds):
    """Closed loop; returns (pass seconds, item seconds, calibration
    seconds, attempted, failed). Pass seconds exclude calibration."""
    pass_s, item_s, speed, attempted, failed = [], [], [], 0, 0
    start = perf_counter()
    while True:
        if tracer:
            tracer.start_pass()
            span = tracer.begin("pass")
        cal = None if tracer else []
        t0 = perf_counter()
        times, bad = workload.run_pass(tracer, cal)
        pass_s.append(perf_counter() - t0 - sum(cal or ()))
        if tracer:
            tracer.end(span)
        speed += cal or ()
        item_s += times
        attempted += len(workload.items)
        failed += bad
        if perf_counter() - start + statistics.median(pass_s) > seconds:
            return pass_s, item_s, speed, attempted, failed


def print_layers(table, wall):
    import tracing
    moves = {t[0]: t[5] for t in tracing.TARGETS}
    print(f"{'span':34s} {'calls':>7s} {'s':>9s} {'self_s':>9s} {'self%':>6s}"
          "  moves")
    for name, (calls, total, own) in sorted(table.items(),
                                            key=lambda kv: -kv[1][2]):
        print(f"{name:34s} {calls:7d} {total:9.4f} {own:9.4f} "
              f"{100 * own / wall:6.2f}  {moves.get(name, '')}")
    layers = sum(r[2] for n, r in table.items() if n not in tracing.GLUE)
    print(f"layer self times sum to {layers:.4f} s, {100 * layers / wall:.2f}% "
          f"of traced wall_s {wall:.4f} s; the rest is the benchmark's own "
          f"pass and item loop")


def main(argv=None):
    args = parse_args(argv)
    if sys.flags.optimize:
        fail("refusing to run under python -O: verify-all's checks are "
             "asserts that vanish there")
    spec = load_spec()
    buckysob = import_package()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {sorted(workloads.WORKLOADS)}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    info = stamp(buckysob, args.seed)
    print("stamp " + json.dumps(info, sort_keys=True))
    WORKDIR.mkdir(exist_ok=True)

    reference = workloads.CALIBRATION_REFERENCE_S
    setup = None if args.trace else measure_setup(args.workload, args.seed,
                                                   reference)
    workload = workloads.WORKLOADS[args.workload](
        args.seed, corrupt=args.corrupt, workdir=WORKDIR)
    tracer = tracing.Tracer() if args.trace else None
    undo, missing = tracing.install(tracer) if tracer else ([], [])
    try:
        pass_s, item_s, speed, attempted, failed = run_passes(
            workload, tracer, args.seconds)
    finally:
        tracing.uninstall(undo)

    if tracer:
        table = tracing.layer_table(tracer)
        computed = tracing.layer_metrics(tracer, table, workloads.CHECKS)
        (WORKDIR / f"spans-{args.workload}-{args.seed}.json").write_text(
            json.dumps(tracer.spans_json()))
    else:
        measured = {"wall_s": statistics.median(pass_s),
                    "item_s.p50": statistics.median(item_s),
                    "item_s.p90": percentile(item_s, 90)}
        scale = reference / statistics.median(speed)
        computed = {k: v * scale for k, v in measured.items()}
        computed["setup_s"], measured["setup_s"] = setup
        computed["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        table = {}
    absent = [m["name"] for m in declared if m["name"] not in computed]
    if absent:
        fail(f"declared metrics not measured: {absent}")
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
               for m in declared}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(pass_s)}  items {len(item_s)}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio = {failed / attempted:.6g} ({failed}/{attempted})")
    if not tracer:
        print(f"item_s.p50 = {computed['item_s.p50']:.6g} s (not gated: on "
              "verify_all it falls between two short checks)")
        print("as measured: " + ", ".join(
            f"{k} {v:.6g} s" for k, v in measured.items())
            + f"; calibration median {statistics.median(speed):.6g} s "
              f"against {reference} s")
    for target in missing:
        print(f"warning: trace target {target} not found")
    if table:
        print_layers(table, computed["trace.wall_s"])

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    if args.out:
        record = {"stamp": info, "workload": args.workload,
                  "trace": args.trace, "pass_s": pass_s, "item_s": item_s,
                  "fail_ratio": failed / attempted,
                  "computed": computed, "calibration_s": speed,
                  "measured": {} if tracer else measured,
                  "layers": {k: dict(zip(("calls", "s", "self_s"), v))
                             for k, v in table.items()},
                  "missing_targets": missing, "result": result}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
