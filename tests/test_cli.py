"""Command-line surface: outputs, determinism, exit codes."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from buckysob import cli, closedform, green, ratmat
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
    code, out = run(capsys, "sample-ca", "--a-values", "1/10,1,10", "--format", "csv")
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
])
def test_zero_denominator_in_a_values_exits_2(argv, capsys):
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


def test_verification_failure_exits_1(monkeypatch, capsys):
    def mismatch(*args, **kwargs):
        raise green.RouteMismatch("C0 diagonal vs trace")

    monkeypatch.setattr(green, "build_green_bundle", mismatch)
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


def test_shifted_green_diagonal_fails_moore_penrose(monkeypatch, capsys):
    """G(10) with every diagonal entry off by 1/10^6 is still constant on the
    diagonal, but no longer C(10)."""
    def shifted(A, a, *args, _solve=green.green_matrix):
        g = _solve(A, a, *args)
        if a == 10:
            g = g + Fraction(1, 10 ** 6) * ratmat.RationalMatrix.identity(g.rows)
        return g

    monkeypatch.setattr(green, "green_matrix", shifted)
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
    def not_walk_regular(A):
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
    # Matrix products: 6 in moore_penrose, 2 in the block conjugation; and
    # one matrix-vector product A u per equality witness, in its form check.
    assert sum(cols > 1 for _, cols in products) == 8
    assert products.count((60, 1)) == len(products) - 8 == 120
    lines = [l for l in out.strip().splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 10
    assert all(l.startswith("PASS") for l in lines)
    names = [l.split()[1] for l in lines]
    assert names == sorted(names)
    report = json.loads(out_file.read_text())
    assert report["ok"] is True
    assert report["schema_version"] == 1
