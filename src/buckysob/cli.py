"""Command-line surface: build the buckyball, compute/export the exact
constants, and run the full verification suite.

Exit codes: 0 success, 1 verification failure, 2 configuration error.
Rationals cross the boundary as "p/q" strings; identical arguments and
seed produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction

from buckysob import blocks, closedform, graph, green, sobolev, spectral
from buckysob.polynomials import VerificationFailed
from buckysob.ratmat import (PivotCounter, RationalMatrix, charpoly,
                             inverse, parse_rat, rat_str)

DEFAULT_CA_GRID = ("1/100", "1/50", "1/20", "1/10", "1/5", "1/2",
                   "1", "2", "5", "10", "20", "50", "100")


def _write(text: str, path: str | None):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _parse_a_values(s: str) -> list[Fraction]:
    values = [parse_rat(tok) for tok in s.split(",")]
    if any(a <= 0 for a in values):
        raise ValueError("a-values must be positive")
    if len(set(values)) < len(values):
        raise ValueError("a-values must be distinct after reduction")
    return values


def _count_at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""
    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return count


def check(cond, msg: str):
    """Raise VerificationFailed(msg) unless cond holds.

    Used instead of ``assert`` so that ``python -O`` cannot turn a failed
    check into a PASS.
    """
    if not cond:
        raise VerificationFailed(msg)


def cmd_build_graph(args) -> int:
    g = graph.buckyball()
    if args.format == "dot":
        _write(graph.to_dot(g), args.output)
    else:
        _write(_json_text(graph.to_json_dict(g)), args.output)
    return 0


def cmd_charpoly(args) -> int:
    g = graph.buckyball()
    p = charpoly(graph.laplacian(g))
    if args.format == "csv":
        lines = ["degree,coefficient"]
        lines += [f"{k},{c}" for k, c in enumerate(p.coeffs)]
        _write("\n".join(lines) + "\n", args.output)
    else:
        _write(_json_text({"schema_version": 1, "charpoly": p.to_json()}),
               args.output)
    return 0


def cmd_spectrum(args) -> int:
    g = graph.buckyball()
    A = graph.laplacian(g)
    p = charpoly(A)
    table = spectral.build_spectral_table(p)
    num = spectral.numeric_eigenvalues(A)
    if args.format == "csv":
        _write(spectral.table_csv(table), args.output)
    else:
        report = {
            "schema_version": 1,
            "residual": num.residual,
            "eigenvalues": list(num.values),
            "table": [{"factor": str(e.factor), "root_index": e.root_index,
                       "closed_form": e.closed_form_hint,
                       "numeric": e.numeric, "multiplicity": e.multiplicity}
                      for e in table.entries],
        }
        _write(_json_text(report), args.output)
    return 0


def cmd_green(args) -> int:
    g = graph.buckyball()
    A = graph.laplacian(g)
    if args.a_values is not None:
        values = _parse_a_values(args.a_values)
        matrices = {rat_str(a): green.green_matrix(A, a).to_json() for a in values}
        _write(_json_text({"schema_version": 1, "green": matrices}), args.output)
    else:
        _write(_json_text({"schema_version": 1,
                           "pseudo_green": green.pseudo_green(A).to_json()}),
               args.output)
    return 0


def cmd_constants(args) -> int:
    g = graph.buckyball()
    A = graph.laplacian(g)
    p = charpoly(A)
    _write(_json_text(green.constants_report(A, p)), args.output)
    return 0


def cmd_sample_ca(args) -> int:
    g = graph.buckyball()
    A = graph.laplacian(g)
    p = charpoly(A)
    ca = green.ca_via_charpoly(p)
    a_values = _parse_a_values(",".join(DEFAULT_CA_GRID)
                               if args.a_values is None else args.a_values)
    _write(green.sample_ca_csv(ca, a_values, A.rows), args.output)
    return 0


def _verify_checks(trials: int, seed: int):
    """Yield (name, result dict) for every verification item."""
    g = graph.buckyball()
    A = graph.laplacian(g)
    # The charpoly, G*, G(1) and the block split, which several checks
    # share, are computed on first use, inside the first check that needs
    # them, so that their time shows in that check's report. G*'s counter
    # holds the ops of its one solve, which block_reduction reports. G(1) is
    # solved by direct elimination; block_reduction compares the block route
    # with it, and moore_penrose then solves G(1/10) and G(10) by that block
    # route, two 30x30 solves each in place of a full 60x60 inverse. The
    # block route's first G(a) computes the halves' annihilators, which
    # size its primes: the squarefree parts of the two 30x30 charpolys that
    # half_spectra_check has computed and cached by value just before, so
    # they cost little, once per process. Neither route calls
    # green.green_matrix, which these solves check, and whose one-time
    # annihilator of A and walk-class table would cost more than the three
    # G(a) by elimination. sobolev_trials checks batches of integer rows:
    # each block of random vectors is drawn and checked in turn, and the
    # equality witnesses walk G*'s and G(1)'s columns a block at a time, on
    # int64 arrays where a bound proves they cannot overflow.
    charpoly_of_a = functools.cache(lambda: charpoly(A))
    full_counter = PivotCounter()
    pseudo_green_of_a = functools.cache(
        lambda: green.pseudo_green(A, full_counter))
    green_at_one = functools.cache(lambda: inverse(A.scaled_add(1)))
    split_of_a = functools.cache(
        lambda: blocks.block_split(A, graph.find_antipodal_involution(g)))

    def check_graph_combinatorics():
        census = graph.face_census(g)
        check(g.n == 60 and len(g.edges) == 90, "vertex/edge count")
        check(g.degrees() == [3] * 60, "3-regular")
        check(g.is_connected(), "connected")
        check(graph.girth(g) == 5, "girth")
        check(census.pentagon_count == 12 and census.hexagon_count == 20, "faces")
        check(g.n - len(g.edges) + census.face_count == 2, "Euler")
        return {"faces": census.face_count}

    def check_charpoly_factorization():
        p = charpoly_of_a()
        check(p == closedform.charpoly_product(), "factor product mismatch")
        return {"degree": p.degree}

    def check_c0_three_routes():
        c_diag = green.c0_via_diagonal(pseudo_green_of_a())
        c_trace = green.c0_via_trace(charpoly_of_a())
        check(c_diag == c_trace == closedform.C0,
              f"{c_diag} vs {c_trace} vs {closedform.C0}")
        check(abs(float(c_diag) - closedform.C0_DECIMAL) < 5e-6, "decimal")
        return {"c0": rat_str(c_diag)}

    ca = None

    def check_ca_three_routes():
        nonlocal ca
        ca = green.c_of_a(A, charpoly_of_a())
        return {"num_degree": ca.num.degree, "den_degree": ca.den.degree}

    def check_limit_identity():
        rf = ca if ca is not None else green.ca_via_charpoly(charpoly_of_a())
        check(green.limit_identity_check(rf, closedform.C0, A.rows), "limit value")
        return {}

    def check_moore_penrose():
        g_star = pseudo_green_of_a()
        green.constant_diagonal(g_star)
        # The G(a) solves come before verify_pseudo_green's products, whose
        # intermediates would otherwise be alive during them; G(1/10) and
        # G(10) serve this check only and are not kept. Their diagonals, by
        # direct (G(1)) and block elimination, must be the closed form's C(a).
        ca_known = closedform.ca_closed_form()
        for a in (Fraction(1, 10), 1, 10):
            c_a = green.constant_diagonal(
                green_at_one() if a == 1
                else blocks.assemble_green_via_blocks(split_of_a(), a))
            check(c_a == ca_known(a), f"G({a}) diagonal {c_a} is not C({a})")
        green.verify_pseudo_green(A, g_star)
        return {}

    def check_eigenvalue_table():
        table = spectral.build_spectral_table(charpoly_of_a())
        num = spectral.numeric_eigenvalues(A)
        cv = spectral.cross_validate(num, table)
        check(tuple(table.multiplicities()) == closedform.TABLE_MULTIPLICITIES,
              f"multiplicities {table.multiplicities()}")
        check(cv.max_deviation <= 1e-8, f"deviation {cv.max_deviation}")
        trace = sum(m * x for m, x in zip(table.multiplicities(),
                                          table.numeric_roots()))
        check(abs(trace - 180.0) <= 1e-8, f"trace {trace}")
        return {"clusters": cv.cluster_count, "max_deviation": cv.max_deviation}

    def check_block_reduction():
        split = split_of_a()
        relabeled = A.permuted(list(split.perm))
        j = split.j_matrix
        j_inv = Fraction(1, 2) * j
        conj = j_inv * relabeled * j
        zero = RationalMatrix.zeros(A.rows // 2, A.rows // 2)
        expected = RationalMatrix.block([[split.a_plus, zero], [zero, split.a_minus]])
        check(conj == expected, "J conjugation")
        blocks.half_spectra_check(split, charpoly_of_a())
        direct = pseudo_green_of_a()
        half_counter = PivotCounter()
        via_blocks = blocks.assemble_green_via_blocks(split, None, half_counter)
        check(via_blocks == direct, "block G* mismatch")
        check(blocks.assemble_green_via_blocks(split, 1) ==
              green_at_one(), "block G(1) mismatch")
        check(half_counter.ops < full_counter.ops, "block route not cheaper")
        return {"half_ops": half_counter.ops, "full_ops": full_counter.ops}

    def check_sobolev_trials():
        g_star = pseudo_green_of_a()
        rng = random.Random(seed)
        mean_zero = sobolev.draw_batch(trials, A.rows, rng, mean_zero=True)
        for lhs, rhs, holds in sobolev.trial_batch(mean_zero, closedform.C0, A):
            if not holds:  # the message is formatted only on failure
                raise VerificationFailed(f"mean-zero inequality failed: {lhs} > {rhs}")
        g1 = green_at_one()
        c1 = green.constant_diagonal(g1)
        damped = sobolev.draw_batch(max(trials // 10, 1), A.rows, rng)
        for _, _, holds in sobolev.trial_batch(damped, c1, A, 1):
            check(holds, "damped inequality failed")
        c0_squared, c1_squared = closedform.C0 ** 2, c1 ** 2
        for w in sobolev.equality_witnesses(g_star, A):
            check(w.lhs == c0_squared, f"mean-zero equality fails at column {w.j0}")
        for w in sobolev.equality_witnesses(g1, A, 1):
            check(w.lhs == c1_squared, f"damped equality fails at column {w.j0}")
        # sharpness: any constant below C0 is beaten by a G* column
        below = closedform.C0 - Fraction(1, 10 ** 6)
        column = g_star.submatrix(range(A.rows), [0])
        _, _, holds = sobolev.sobolev_trial(column, below, A)
        check(not holds, "C0 - 1e-6 not refuted")
        return {"trials": trials}

    def check_relabel_invariance():
        rng = random.Random(seed)
        perm = list(range(A.rows))
        rng.shuffle(perm)
        g2 = graph.relabel(g, perm)
        A2 = graph.laplacian(g2)
        p2 = charpoly(A2)
        check(p2 == charpoly_of_a(), "charpoly changed under relabeling")
        check(green.c0_via_diagonal(green.pseudo_green(A2)) == closedform.C0,
              "C0 changed under relabeling")
        check(green.ca_via_charpoly(p2) == closedform.ca_closed_form(),
              "C(a) changed under relabeling")
        return {}

    yield "block_reduction", check_block_reduction
    yield "c0_three_routes", check_c0_three_routes
    yield "ca_three_routes", check_ca_three_routes
    yield "charpoly_factorization", check_charpoly_factorization
    yield "eigenvalue_table", check_eigenvalue_table
    yield "graph_combinatorics", check_graph_combinatorics
    yield "limit_identity", check_limit_identity
    yield "moore_penrose", check_moore_penrose
    yield "relabel_invariance", check_relabel_invariance
    yield "sobolev_trials", check_sobolev_trials


def cmd_verify_all(args) -> int:
    results = {}
    ok_all = True
    checks = sorted(_verify_checks(args.trials, args.seed),
                    key=lambda kv: kv[0])
    for name, fn in checks:
        try:
            detail = fn() or {}
            results[name] = {"ok": True, **detail}
            print(f"PASS {name}")
        except Exception as exc:  # noqa: BLE001 - report and keep going
            ok_all = False
            results[name] = {"ok": False, "error": str(exc)}
            print(f"FAIL {name}: {exc}")
    summary = {"schema_version": 1, "ok": ok_all, "seed": args.seed,
               "trials": args.trials, "checks": results}
    if args.output:
        _write(_json_text(summary), args.output)
    return 0 if ok_all else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="buckysob",
        description="Exact buckyball spectral data and sharp Sobolev constants")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, formats=(), a_values=False, sampling=False, **kwargs):
        """Subcommand ``name`` with only the options ``fn`` reads."""
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--output", default=None, help="output file (default stdout)")
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0])
        if a_values:
            p.add_argument("--a-values", dest="a_values", default=None,
                           help="comma-separated positive rationals, e.g. 1/10,1,10")
        if sampling:
            p.add_argument("--trials", type=_count_at_least(0), default=100)
            p.add_argument("--seed", type=int, default=0)
        p.set_defaults(fn=fn)
        return p

    add("build-graph", cmd_build_graph, formats=("json", "dot"),
        help="construct and export the graph")
    add("charpoly", cmd_charpoly, formats=("json", "csv"),
        help="exact characteristic polynomial")
    add("spectrum", cmd_spectrum, formats=("json", "csv"),
        help="eigenvalue table and numeric spectrum")
    add("green", cmd_green, a_values=True,
        help="exact Green / pseudo-Green matrices")
    add("constants", cmd_constants, help="sharp constants report")
    add("sample-ca", cmd_sample_ca, a_values=True,
        help="CSV samples of C(a) and C(a)-1/(60a)")
    verify = add("verify-all", cmd_verify_all, sampling=True,
                 help="run the full oracle suite")
    # Accepted, and never read, only because perfbench/workloads.py passes
    # "--parallel 1"; any other value is an error.
    verify.add_argument("--parallel", type=int, choices=(1,), default=1)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except VerificationFailed as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
