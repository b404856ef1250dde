"""Numeric spectrum of the Laplacian cross-checked against exact factors.

Two independent routes meet here: LAPACK's symmetric eigensolver
(``numpy.linalg.eigh``) on a float copy of the matrix, and root bisection
on the exact integer factors of the characteristic polynomial. The exact
factor-product identity is the authoritative check; the numerics confirm
the table to 1e-8.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from buckysob import closedform
from buckysob.polynomials import IntPolynomial, VerificationFailed
from buckysob.ratmat import RationalMatrix

CLUSTER_GAP = 1e-6


class NonSymmetric(ValueError):
    pass


class FactorMismatch(VerificationFailed):
    """Polynomial does not equal the known factor product."""


class MultiplicityMismatch(VerificationFailed):
    """Numeric clusters disagree with the exact multiplicities."""


@dataclass(frozen=True)
class NumericSpectrum:
    values: tuple[float, ...]
    residual: float


@dataclass(frozen=True)
class TableEntry:
    factor: IntPolynomial
    root_index: int
    closed_form_hint: str
    multiplicity: int
    numeric: float


@dataclass(frozen=True)
class SpectralTable:
    entries: tuple[TableEntry, ...]

    def multiplicities(self):
        return [e.multiplicity for e in self.entries]

    def numeric_roots(self):
        return [e.numeric for e in self.entries]


def numeric_eigenvalues(m: RationalMatrix) -> NumericSpectrum:
    if not m.is_symmetric():
        raise NonSymmetric("matrix is not symmetric")
    a0 = np.array([[x / m.den for x in row] for row in m.num])
    lam, vec = np.linalg.eigh(a0)
    residual = float(np.max(np.abs(a0 @ vec - vec * lam)))
    return NumericSpectrum(values=tuple(float(x) for x in lam), residual=residual)


def bisect_roots(p: IntPolynomial, lo: float = -1.0, hi: float = 7.0,
                 tol: float = 1e-12) -> list[float]:
    """All real roots of p in [lo, hi], ascending, by grid scan + bisection.

    Assumes simple roots separated by more than the grid step (true for
    every factor handled here; the closest pair is ~0.02 apart).
    """
    step = 1.0 / 64.0
    xs = [lo + k * step for k in range(int((hi - lo) / step) + 1)]
    roots = []
    for x0, x1 in zip(xs, xs[1:]):
        f0, f1 = _horner(p, x0), _horner(p, x1)
        if f0 == 0.0:
            roots.append(x0)
            continue
        if f0 * f1 < 0.0:
            a, b = x0, x1
            fa = f0
            while b - a > tol:
                mid = 0.5 * (a + b)
                fm = _horner(p, mid)
                if fm == 0.0:
                    a = b = mid
                    break
                if fa * fm < 0.0:
                    b = mid
                else:
                    a, fa = mid, fm
            roots.append(0.5 * (a + b))
    if _horner(p, xs[-1]) == 0.0:
        roots.append(xs[-1])
    return roots


def _horner(p: IntPolynomial, x: float) -> float:
    acc = 0.0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def build_spectral_table(p: IntPolynomial) -> SpectralTable:
    """One row per (exact factor, real root), ascending by numeric value."""
    if p != closedform.charpoly_product():
        raise FactorMismatch("polynomial does not match the known factorization")
    entries = []
    for factor, exp in closedform.CHARPOLY_FACTORS:
        roots = bisect_roots(factor)
        if len(roots) != factor.degree:
            raise FactorMismatch(f"factor {factor} missing real roots")
        for idx, r in enumerate(roots):
            hint = closedform.ROOT_HINTS.get((factor, idx), "")
            entries.append(TableEntry(factor=factor, root_index=idx,
                                      closed_form_hint=hint,
                                      multiplicity=exp, numeric=r))
    entries.sort(key=lambda e: e.numeric)
    return SpectralTable(entries=tuple(entries))


@dataclass(frozen=True)
class CrossValidation:
    cluster_count: int
    max_deviation: float


def cluster_values(values, gap: float = CLUSTER_GAP) -> list[list[float]]:
    clusters = [[values[0]]]
    for prev, cur in zip(values, values[1:]):
        if cur - prev > gap:
            clusters.append([])
        clusters[-1].append(cur)
    return clusters


def cross_validate(num: NumericSpectrum, table: SpectralTable) -> CrossValidation:
    """Match clustered numeric eigenvalues against the exact-root table."""
    clusters = cluster_values(list(num.values))
    if len(clusters) != len(table.entries):
        raise MultiplicityMismatch(
            f"{len(clusters)} numeric clusters vs {len(table.entries)} table rows")
    max_dev = 0.0
    for cluster, entry in zip(clusters, table.entries):
        if len(cluster) != entry.multiplicity:
            raise MultiplicityMismatch(
                f"cluster near {entry.numeric:.6f}: size {len(cluster)} "
                f"vs multiplicity {entry.multiplicity}")
        for x in cluster:
            max_dev = max(max_dev, abs(x - entry.numeric))
    return CrossValidation(cluster_count=len(clusters), max_deviation=max_dev)


def table_csv(table: SpectralTable) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["factor", "root_index", "closed_form", "numeric", "multiplicity"])
    for e in table.entries:
        w.writerow([str(e.factor), e.root_index, e.closed_form_hint,
                    f"{e.numeric:.12f}", e.multiplicity])
    return buf.getvalue()


def eigenvalues_csv(num: NumericSpectrum) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["index", "eigenvalue"])
    for i, x in enumerate(num.values):
        w.writerow([i, f"{x:.12f}"])
    return buf.getvalue()
