"""The benchmark's workloads.

Each workload draws its inputs from the seed, calls the package's public
functions in-process, and checks every output exactly against the closed
forms in `buckysob.closedform` or against an independent route. A pass
runs every item once; passes repeat the same inputs. With ``corrupt`` set,
one expected value is shifted by 1/10^6 so that the check must fail.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction
from time import perf_counter

from buckysob import blocks, cli, closedform, graph, green, ratmat

PERTURBATION = Fraction(1, 10 ** 6)

VERIFY_TRIALS = 100
CHECKS = ("block_reduction", "c0_three_routes", "ca_three_routes",
          "charpoly_factorization", "eigenvalue_table", "graph_combinatorics",
          "limit_identity", "moore_penrose", "relabel_invariance",
          "sobolev_trials")

# Bit widths of the numerator and denominator of each damping parameter a.
# The widest is drawn twice, so that item_s.p90 falls among wide items
# instead of on the boundary between two widths.
GREEN_WIDTHS = (1, 8, 16, 24, 32, 40, 48, 48)

RELABELINGS = 6


# Seconds `calibrate` takes on the 2-core container the baseline was made
# on. Times are reported as measured seconds scaled by this over the median
# calibration time of the same run, which cancels the drift in speed of a
# shared host between runs.
CALIBRATION_REFERENCE_S = 0.08


def calibrate():
    """Seconds for a fixed piece of exact arithmetic written with the
    standard library only: integer Bareiss elimination and a Fraction dot
    product, the kinds of work the package does, none of its code."""
    rng = random.Random(20141236)
    n = 30
    a = [[rng.getrandbits(24) for _ in range(n)] for _ in range(n)]
    xs = [Fraction(rng.getrandbits(40), rng.getrandbits(40) | 1)
          for _ in range(1000)]
    t0 = perf_counter()
    prev = 1
    for k in range(n - 1):
        rk, pk = a[k], a[k][k]
        for ri in a[k + 1:]:
            aik = ri[k]
            for j in range(k + 1, n):
                ri[j] = (pk * ri[j] - aik * rk[j]) // prev
        prev = pk
    acc = Fraction(0)
    for x, y in zip(xs, reversed(xs)):
        acc += x * y
    return perf_counter() - t0


def _entries_equal(m1, m2):
    n, k = m1.rows, m1.cols
    return ((m2.rows, m2.cols) == (n, k)
            and all(m1[i, j] == m2[i, j] for i in range(n) for j in range(k)))


class Workload:
    """Items are run one after another; each returns True when correct."""

    def __init__(self):
        self.g = graph.buckyball()
        self.A = graph.laplacian(self.g)
        self.items = []

    def run_pass(self, tracer, speed):
        """Returns (seconds per item, number of failed items). Unless
        `speed` is None, a calibration time is appended to it before each
        item."""
        times, failed = [], 0
        for item in self.items:
            if speed is not None:
                speed.append(calibrate())
            span = tracer.begin("item") if tracer else None
            t0 = perf_counter()
            try:
                ok = self.run_item(item)
            except Exception as exc:  # noqa: BLE001 - a raising item failed
                print(f"item failed: {type(exc).__name__}: {exc}")
                ok = False
            times.append(perf_counter() - t0)
            if tracer:
                tracer.end(span)
            failed += not ok
        return times, failed


class GreenSweep(Workload):
    """Exact G(a) for a = p/q, directly and through the block split."""

    def __init__(self, seed, corrupt=False, workdir=None):
        super().__init__()
        self.split = blocks.block_split(
            self.A, graph.find_antipodal_involution(self.g))
        rng = random.Random(seed)
        ca = closedform.ca_closed_form()
        for w in GREEN_WIDTHS:
            a = Fraction(rng.getrandbits(w) | 1 << (w - 1),
                         rng.getrandbits(w) | 1 << (w - 1))
            self.items.append((a, ca(a)))
        if corrupt:
            a, expected = self.items[0]
            self.items[0] = (a, expected - PERTURBATION)

    def run_item(self, item):
        a, expected = item
        direct = green.green_matrix(self.A, a)
        via_blocks = blocks.assemble_green_via_blocks(self.split, a)
        return (_entries_equal(direct, via_blocks)
                and all(direct[i, i] == expected for i in range(direct.rows)))


class CharpolyRelabel(Workload):
    """Charpoly and C0 of seeded random relabelings."""

    def __init__(self, seed, corrupt=False, workdir=None):
        super().__init__()
        rng = random.Random(seed)
        n = self.g.n
        self.items = [rng.sample(range(n), n) for _ in range(RELABELINGS)]
        self.charpoly = closedform.charpoly_product()
        self.c0 = closedform.C0 - (PERTURBATION if corrupt else 0)

    def run_item(self, perm):
        A = graph.laplacian(graph.relabel(self.g, perm))
        p = ratmat.charpoly(A)
        c0 = green.c0_via_diagonal(green.pseudo_green(A))
        return p == self.charpoly and c0 == self.c0


class VerifyAll(Workload):
    """`buckysob verify-all`; an item is one of its checks."""

    def __init__(self, seed, corrupt=False, workdir=None):
        super().__init__()
        self.report = workdir / f"verify-all-{os.getpid()}.json"
        self.argv = ["verify-all", "--trials", str(VERIFY_TRIALS),
                     "--seed", str(seed), "--parallel", "1",
                     "--output", str(self.report)]
        self.corrupt = corrupt
        self.items = list(CHECKS)

    def run_pass(self, tracer, speed):
        times = {}
        checks = cli._verify_checks

        def timed_checks(*args, **kwargs):
            for name, fn in checks(*args, **kwargs):
                yield name, self._timed(name, fn, times, tracer, speed)

        c0 = closedform.C0
        self.report.unlink(missing_ok=True)
        cli._verify_checks = timed_checks
        if self.corrupt:
            closedform.C0 = c0 - PERTURBATION
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(self.argv)
        except Exception as exc:  # noqa: BLE001 - the whole pass failed
            print(f"verify-all raised {type(exc).__name__}: {exc}")
            rc = -1
        finally:
            cli._verify_checks = checks
            closedform.C0 = c0
        try:
            results = json.loads(self.report.read_text())["checks"]
        except (OSError, ValueError, KeyError) as exc:
            print(f"verify-all report unreadable: {exc}")
            results = {}
        self.report.unlink(missing_ok=True)
        failed = sum(results.get(name, {}).get("ok") is not True
                     for name in CHECKS)
        if rc != 0 and failed == 0:
            failed = len(CHECKS)
        return [times[n] for n in CHECKS if n in times], failed

    @staticmethod
    def _timed(name, fn, times, tracer, speed):
        def timed():
            if speed is not None:
                speed.append(calibrate())
            span = tracer.begin(f"cli.check.{name}") if tracer else None
            t0 = perf_counter()
            try:
                return fn()
            finally:
                times[name] = perf_counter() - t0
                if tracer:
                    tracer.end(span)

        return timed


WORKLOADS = {
    "verify_all": VerifyAll,
    "green_sweep": GreenSweep,
    "charpoly_relabel": CharpolyRelabel,
}
