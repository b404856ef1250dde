"""Command-line surface: outputs, determinism, exit codes."""

import argparse
import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from buckysob import (blocks, cli, closedform, graph, green, polynomials,
                      ratmat, sobolev)
from buckysob.cli import main
from buckysob.polynomials import DegreeInsufficient, IntPolynomial

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_build_graph_json(capsys):
    code, out = run(capsys, "build-graph")
    assert code == 0
    d = json.loads(out)
    assert d["n"] == 60
    assert len(d["edges"]) == 90
    assert len(d["faces"]) == 32


def test_build_graph_dot(tmp_path):
    out_file = tmp_path / "g.dot"
    assert main(["build-graph", "--format", "dot", "--output", str(out_file)]) == 0
    text = out_file.read_text()
    assert text.startswith("graph")
    assert text.count("--") == 90


def test_charpoly_json(capsys):
    code, out = run(capsys, "charpoly")
    assert code == 0
    d = json.loads(out)
    assert len(d["charpoly"]) == 61
    assert d["charpoly"][-1] == "1"
    assert d["charpoly"][0] == "0"


def test_spectrum_csv(capsys):
    code, out = run(capsys, "spectrum", "--format", "csv")
    assert code == 0
    assert len(out.strip().splitlines()) == 16  # header + 15 rows


def test_green_at_one(capsys):
    code, out = run(capsys, "green", "--a-values", "1")
    assert code == 0
    d = json.loads(out)
    diag = [d["green"]["1"][i][i] for i in range(60)]
    assert len(set(diag)) == 1
    assert Fraction(diag[0]) == Fraction(28136010, 87119712)


def test_sample_ca_decreasing(capsys):
    code, out = run(capsys, "sample-ca", "--a-values", "1/10,1,10")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    values = [Fraction(line.split(",")[1]) for line in lines[1:]]
    assert values[0] > values[1] > values[2]


def test_sample_ca_rejects_nonpositive(capsys):
    code = main(["sample-ca", "--a-values=-1,1"])
    assert code == 2


def test_bad_a_values_exit_code(capsys):
    assert main(["green", "--a-values", "0"]) == 2


@pytest.mark.parametrize("argv", [
    ["green", "--a-values", "1/0"],
    ["sample-ca", "--a-values", "1/2,1/0"],
    ["green", "--a-values", ""],
    ["sample-ca", "--a-values", ""],
    ["green", "--a-values", "1,,10"],
    # Only "p/q" and "p": no exponent, which Fraction would expand into a
    # huge denominator, no decimal point and no underscore.
    ["green", "--a-values", "1e-3000000"],
    ["sample-ca", "--a-values", "1e-3000000"],
    ["green", "--a-values", "0.1"],
    ["sample-ca", "--a-values", "0.1"],
    ["green", "--a-values", "1_0"],
    ["sample-ca", "--a-values", "1_0"],
])
def test_malformed_a_values_exit_2(argv, capsys):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_byte_identical_outputs(tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["charpoly", "--output", str(f1)])
    main(["charpoly", "--output", str(f2)])
    assert f1.read_bytes() == f2.read_bytes()


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["charpoly", "--format", "dot"],
    ["sample-ca", "--format", "csv"],
    ["build-graph", "--trials", "5"],
    ["verify-all", "--trials", "-1"],
    ["constants", "--parallel", "0"],
    ["constants", "--parallel", "1"],
    ["verify-all", "--parallel", "2"],
])
def test_option_not_read_or_out_of_range_exits_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_every_option_is_read(tmp_path):
    # verify-all accepts --parallel without reading it only because the
    # benchmark's workloads pass "--parallel 1".
    unread = {"verify-all": {"parallel"}}
    reads = set()

    class RecordingNamespace(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    parser = cli.build_parser()
    commands = parser._subparsers._group_actions[0].choices
    for name, subparser in commands.items():
        dests = {a.dest for a in subparser._actions
                 if a.default is not argparse.SUPPRESS}
        argv = [name, "--output", str(tmp_path / name)]
        if name == "verify-all":
            argv += ["--trials", "2"]
        args = parser.parse_args(argv, namespace=RecordingNamespace())
        reads.clear()
        assert args.fn(args) == 0
        assert dests - reads == unread.get(name, set()), name


def test_verification_failure_exits_1(monkeypatch, capsys):
    def mismatch(*args, **kwargs):
        raise green.RouteMismatch("C0 diagonal vs trace")

    monkeypatch.setattr(green, "constants_report", mismatch)
    assert main(["constants"]) == 1
    assert "verification failed" in capsys.readouterr().err


def test_failed_fit_exits_1(monkeypatch, capsys):
    def no_fit(*args, **kwargs):
        raise DegreeInsufficient("no unique rational function fits")

    monkeypatch.setattr(green, "fit_rational_function", no_fit)
    assert main(["constants"]) == 1
    assert "verification failed" in capsys.readouterr().err


def test_charpoly_without_zero_root_exits_1(monkeypatch, capsys):
    """A charpoly with p(0) != 0 is a failed verification (no kernel), not
    a configuration error."""
    monkeypatch.setattr(cli, "charpoly",
                        lambda A: closedform.charpoly_product() + IntPolynomial([1]))
    assert main(["constants"]) == 1
    assert "verification failed: polynomial has no root at 0" in capsys.readouterr().err


INEXACT_GCD_SCRIPT = """
import sys
from buckysob import cli, polynomials
polynomials.poly_gcd = lambda p, q: polynomials.IntPolynomial([1, 1])
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
@pytest.mark.parametrize("argv", [["constants"], ["sample-ca"],
                                  ["green", "--a-values", "1"]],
                         ids=["constants", "sample-ca", "green"])
def test_inexact_division_exits_1(flags, argv):
    """A gcd that does not divide its inputs makes an exact division fail:
    a failed verification (exit 1), not a configuration error (exit 2),
    also with asserts stripped by ``python -O``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *flags, "-c", INEXACT_GCD_SCRIPT, *argv],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stderr == "verification failed: inexact polynomial division\n"


def test_shifted_green_diagonal_fails_moore_penrose(monkeypatch, capsys):
    """G(10) with every diagonal entry off by 1/10^6 is still constant on the
    diagonal, but no longer C(10). moore_penrose solves G(10) by the block
    route, ``blocks.assemble_green_via_blocks(split, 10)``, shifted here."""
    def shifted(split, a=None, *args, _assemble=blocks.assemble_green_via_blocks):
        g = _assemble(split, a, *args)
        if a == 10:
            g = g + Fraction(1, 10 ** 6) * ratmat.RationalMatrix.identity(g.rows)
        return g

    monkeypatch.setattr(blocks, "assemble_green_via_blocks", shifted)
    code, out = run(capsys, "verify-all", "--trials", "0")
    assert code == 1
    fails = [l for l in out.splitlines() if l.startswith("FAIL")]
    assert fails == ["FAIL moore_penrose: G(10) diagonal "
                     f"{closedform.ca_closed_form()(10) + Fraction(1, 10 ** 6)} "
                     "is not C(10)"]


def test_verify_checks_fail_under_optimize():
    """A wrong C0 must FAIL even with asserts stripped by ``python -O``."""
    script = """
import sys
from fractions import Fraction
from buckysob import cli, closedform
closedform.C0 += Fraction(1, 376200)
checks = cli._verify_checks
cli._verify_checks = lambda *args: [
    (name, fn) for name, fn in checks(*args)
    if name in ("c0_three_routes", "limit_identity")]
sys.exit(cli.main(["verify-all", "--trials", "0"]))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAIL c0_three_routes" in proc.stdout
    assert "FAIL limit_identity" in proc.stdout


def _no_reduction(monkeypatch):
    monkeypatch.setattr(polynomials, "poly_gcd", lambda p, q: IntPolynomial([1]))


def _wrong_ca_numerator(monkeypatch):
    coeffs = closedform.CA_NUM_COEFFS
    monkeypatch.setattr(closedform, "CA_NUM_COEFFS", (coeffs[0] + 1,) + coeffs[1:])


def _failed_checks(out):
    return {l.split()[1].rstrip(":") for l in out.splitlines() if l.startswith("FAIL")}


@pytest.mark.parametrize("plant, failing", [
    # Rational functions are left unreduced: the C(a) routes no longer
    # compare equal, and C(a) - 1/(60a) keeps its pole at 0.
    (_no_reduction, {"ca_three_routes", "limit_identity", "relabel_invariance"}),
    # The closed form's N(a) is off by 1 in its constant term.
    (_wrong_ca_numerator, {"ca_three_routes", "moore_penrose", "relabel_invariance"}),
], ids=["poly_gcd_returns_1", "ca_numerator_plus_1"])
def test_planted_ca_fault_fails_exactly(plant, failing, monkeypatch, capsys):
    plant(monkeypatch)
    code, out = run(capsys, "verify-all", "--trials", "10")
    assert code == 1
    assert _failed_checks(out) == failing


def test_planted_ca_fault_fails_under_optimize():
    """The wrong closed-form numerator FAILs the same checks with asserts
    stripped by ``python -O``."""
    script = """
import sys
from buckysob import cli, closedform
c = closedform.CA_NUM_COEFFS
closedform.CA_NUM_COEFFS = (c[0] + 1,) + c[1:]
sys.exit(cli.main(["verify-all", "--trials", "10"]))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert _failed_checks(proc.stdout) == {
        "ca_three_routes", "moore_penrose", "relabel_invariance"}


# moore_penrose solves G(1/10) from the same split as block_reduction, so
# the shifted A- also makes G(1/10)'s diagonal non-constant.
BLOCK_FAULT_FAILS = ["FAIL block_reduction: J conjugation",
                     "FAIL moore_penrose: diagonal entries are not all equal"]


def test_planted_block_fault_fails_block_reduction(monkeypatch, capsys):
    """A split whose A-[0][0] is off by 1 no longer conjugates the relabeled
    Laplacian: block_reduction FAILs at the J conjugation, and moore_penrose,
    which solves G(1/10) and G(10) from the split, at the first of them."""
    one = ratmat.RationalMatrix.from_ints(
        [[int(i == j == 0) for j in range(30)] for i in range(30)])

    def shifted(*args, _split=blocks.block_split):
        split = _split(*args)
        return dataclasses.replace(split, a_minus=split.a_minus + one)

    monkeypatch.setattr(blocks, "block_split", shifted)
    code, out = run(capsys, "verify-all", "--trials", "10")
    assert code == 1
    assert [l for l in out.splitlines() if l.startswith("FAIL")] == \
        BLOCK_FAULT_FAILS


def test_planted_block_fault_fails_under_optimize():
    """The shifted A- FAILs block_reduction and moore_penrose with asserts
    stripped by ``python -O``."""
    script = """
import dataclasses, sys
from buckysob import blocks, cli, ratmat
split = blocks.block_split
def shifted(*args):
    s = split(*args)
    one = ratmat.RationalMatrix.from_ints(
        [[int(i == j == 0) for j in range(30)] for i in range(30)])
    return dataclasses.replace(s, a_minus=s.a_minus + one)
blocks.block_split = shifted
sys.exit(cli.main(["verify-all", "--trials", "10"]))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert [l for l in proc.stdout.splitlines() if l.startswith("FAIL")] == \
        BLOCK_FAULT_FAILS


# Without the first edge, column 0 of G* has an edge sum below its
# quadratic form x . (A x), which is C0.
EDGE_FAULT_FAILS = ["FAIL sobolev_trials: edge sum 1338577279/2516025600 vs "
                    "quadratic form 239741/376200"]


def test_planted_edge_fault_fails_sobolev_trials(monkeypatch, capsys):
    """Energies over the Laplacian's edges less one: only sobolev_trials
    FAILs, when its first equality witness compares its two energies."""
    edges = sobolev.laplacian_edges
    monkeypatch.setattr(sobolev, "laplacian_edges", lambda A: edges(A)[1:])
    code, out = run(capsys, "verify-all", "--trials", "10")
    assert code == 1
    assert [l for l in out.splitlines() if l.startswith("FAIL")] == \
        EDGE_FAULT_FAILS


@pytest.mark.parametrize("damping, line", [
    (0, "FAIL sobolev_trials: mean-zero equality fails at column 0"),
    (1, "FAIL sobolev_trials: damped equality fails at column 0"),
], ids=["G*", "G(1)"])
def test_planted_witness_fault_fails_sobolev_trials(damping, line, monkeypatch,
                                                    capsys):
    """A witness whose lhs is off by 1/10^6 is no longer the square of the
    sharp constant: sobolev_trials FAILs at its column."""
    def shifted(kernel, A, a=0, _witnesses=sobolev.equality_witnesses):
        out = _witnesses(kernel, A, a)
        if a == damping:
            out[0] = dataclasses.replace(out[0], lhs=out[0].lhs + Fraction(1, 10 ** 6))
        return out

    monkeypatch.setattr(sobolev, "equality_witnesses", shifted)
    code, out = run(capsys, "verify-all", "--trials", "10")
    assert code == 1
    assert [l for l in out.splitlines() if l.startswith("FAIL")] == [line]


def test_planted_edge_fault_fails_under_optimize():
    """The dropped edge FAILs sobolev_trials with asserts stripped by
    ``python -O``."""
    script = """
import sys
from buckysob import cli, sobolev
edges = sobolev.laplacian_edges
sobolev.laplacian_edges = lambda A: edges(A)[1:]
sys.exit(cli.main(["verify-all", "--trials", "10"]))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert [l for l in proc.stdout.splitlines() if l.startswith("FAIL")] == \
        EDGE_FAULT_FAILS


def _drop_last_face(monkeypatch):
    census = graph.face_census

    def dropped(g):
        faces = census(g).faces[:-1]
        lengths = [len(f) for f in faces]
        return graph.FaceCensus(faces, lengths.count(5), lengths.count(6))

    monkeypatch.setattr(graph, "face_census", dropped)


def _factor_two_to_the_eighth(monkeypatch):
    factors = closedform.CHARPOLY_FACTORS
    assert factors[1] == (IntPolynomial([-2, 1]), 9)
    monkeypatch.setattr(closedform, "CHARPOLY_FACTORS",
                        factors[:1] + ((IntPolynomial([-2, 1]), 8),) + factors[2:])


def _shifted_relabeled_pseudo_green(monkeypatch):
    own = graph.laplacian(graph.buckyball())

    def shifted(A, *args, _pseudo_green=green.pseudo_green):
        g = _pseudo_green(A, *args)
        if A != own:
            g = g + Fraction(1, 10 ** 6) * ratmat.RationalMatrix.identity(g.rows)
        return g

    monkeypatch.setattr(green, "pseudo_green", shifted)


@pytest.mark.parametrize("plant, fails", [
    # The census loses its last face, a pentagon.
    (_drop_last_face, ["FAIL graph_combinatorics: faces"]),
    # The known factorization has (x-2)^8 for (x-2)^9: its product no
    # longer equals the charpoly, and the eigenvalue table, built from the
    # charpoly, no longer matches the factors.
    (_factor_two_to_the_eighth,
     ["FAIL charpoly_factorization: factor product mismatch",
      "FAIL eigenvalue_table: polynomial does not match the known factorization"]),
    # G* is off by 1/10^6 on the diagonal only for a relabeled Laplacian.
    (_shifted_relabeled_pseudo_green,
     ["FAIL relabel_invariance: C0 changed under relabeling"]),
], ids=["face_dropped", "factor_exponent_8", "relabeled_g_star_shifted"])
def test_planted_data_fault_fails_exactly(plant, fails, monkeypatch, capsys):
    """Faults in the data graph_combinatorics, charpoly_factorization,
    eigenvalue_table and relabel_invariance read FAIL exactly those checks."""
    plant(monkeypatch)
    code, out = run(capsys, "verify-all", "--trials", "10")
    assert code == 1
    assert [l for l in out.splitlines() if l.startswith("FAIL")] == fails


def test_planted_face_fault_fails_under_optimize():
    """The dropped face FAILs graph_combinatorics with asserts stripped by
    ``python -O``."""
    script = """
import sys
from buckysob import cli, graph
census = graph.face_census
def dropped(g):
    faces = census(g).faces[:-1]
    lengths = [len(f) for f in faces]
    return graph.FaceCensus(faces, lengths.count(5), lengths.count(6))
graph.face_census = dropped
sys.exit(cli.main(["verify-all", "--trials", "10"]))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert [l for l in proc.stdout.splitlines() if l.startswith("FAIL")] == \
        ["FAIL graph_combinatorics: faces"]


def test_blas_threads_default_to_one():
    """Importing buckysob sets an unset BLAS thread variable to 1 before numpy
    loads, and leaves a preset one alone."""
    unset = ("OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in unset}
    env.update(OPENBLAS_NUM_THREADS="3", PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    script = """
import os, sys
import buckysob
assert "numpy" in sys.modules
print(*(os.environ.get(v) for v in
        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")))
"""
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "3", "1"]


def test_verify_checks_compute_nothing_before_the_checks(monkeypatch):
    """The charpoly, G* and G(1) are made once, inside the first check that
    uses them, so listing the checks runs no elimination."""
    calls = []
    for name in ("charpoly_int", "det_int", "jordan_int"):
        def counted(*args, _kernel=getattr(ratmat, name), _name=name):
            calls.append(_name)
            return _kernel(*args)
        monkeypatch.setattr(ratmat, name, counted)
    checks = dict(cli._verify_checks(0, 0))
    assert len(checks) == 10
    assert calls == []
    checks["c0_three_routes"]()
    assert {"charpoly_int", "jordan_int"} <= set(calls)
    done = len(calls)
    checks["charpoly_factorization"]()
    assert len(calls) == done
    # G(1) is solved once, by the first check that needs it.
    checks["moore_penrose"]()
    done = len(calls)
    checks["sobolev_trials"]()
    assert "jordan_int" not in calls[done:]


def test_failed_walk_regularity_fails_ca_three_routes(monkeypatch, capsys, tmp_path):
    def not_walk_regular(A, m):
        raise green.DiagonalMismatch("closed-walk moment m_3 of vertex 1 differs")

    monkeypatch.setattr(green, "walk_regular", not_walk_regular)
    out_file = tmp_path / "report.json"
    code, out = run(capsys, "verify-all", "--trials", "0",
                    "--output", str(out_file))
    assert code == 1
    assert "FAIL ca_three_routes: closed-walk moment m_3" in out
    checks = json.loads(out_file.read_text())["checks"]
    assert [n for n, r in checks.items() if not r["ok"]] == ["ca_three_routes"]


def test_verify_all_deterministic_checks(capsys, tmp_path, monkeypatch, lap):
    solved = []

    def pseudo_green(A, *args, _solve=green.pseudo_green):
        solved.append(A)
        return _solve(A, *args)

    products = []

    def mul(self, other, _mul=ratmat.RationalMatrix.__mul__):
        if isinstance(other, ratmat.RationalMatrix):
            products.append((self.rows, other.cols))
        return _mul(self, other)

    monkeypatch.setattr(green, "pseudo_green", pseudo_green)
    monkeypatch.setattr(ratmat.RationalMatrix, "__mul__", mul)
    out_file = tmp_path / "report.json"
    code, out = run(capsys, "verify-all", "--trials", "0",
                    "--output", str(out_file))
    assert code == 0
    # G* of A is solved once; the other solve is of the relabeled Laplacian.
    assert len(solved) == 2 and sum(m == lap for m in solved) == 1
    # Matrix products: A G* and G* A in moore_penrose's G* verifier and 2 in
    # the block conjugation; walk_regular reads A's walk classes, built on
    # integer rows, and makes none. The equality witnesses form x . (A x) as
    # an integer sum per column, with no matrix-vector product.
    assert sum(cols > 1 for _, cols in products) == 2 + 2
    assert products.count((60, 1)) == len(products) - 4 == 0
    lines = [l for l in out.strip().splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 10
    assert all(l.startswith("PASS") for l in lines)
    names = [l.split()[1] for l in lines]
    assert names == sorted(names)
    report = json.loads(out_file.read_text())
    assert report["ok"] is True
    assert report["schema_version"] == 1
    # The in-place inversion costs n^3 multiply-mod updates per prime: G*'s
    # 60 x 60 solve takes 7 primes (7 * 60^3), the two 30 x 30 halves 9
    # between them (9 * 30^3).
    assert report["checks"]["block_reduction"] == {
        "ok": True, "half_ops": 243000, "full_ops": 1512000}
