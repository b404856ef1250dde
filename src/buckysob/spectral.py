"""Numeric spectrum of the Laplacian cross-checked against exact factors.

Two independent routes meet here: LAPACK's symmetric eigensolver
(``numpy.linalg.eigh``) on a float copy of the matrix, and the roots of
the exact integer factors of the characteristic polynomial, each from the
eigenvalues of its own companion matrix (``numpy.roots``). The exact
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


def real_roots(p: IntPolynomial) -> list[float]:
    """The real roots of p, ascending: LAPACK's eigenvalues of its companion
    matrix (``numpy.roots``) with a zero imaginary part."""
    roots = np.roots([float(c) for c in reversed(p.coeffs)])
    return sorted(float(r.real) for r in roots if r.imag == 0)


def build_spectral_table(p: IntPolynomial) -> SpectralTable:
    """One row per (exact factor, real root), ascending by numeric value."""
    if p != closedform.charpoly_product():
        raise FactorMismatch("polynomial does not match the known factorization")
    entries = []
    for factor, exp in closedform.CHARPOLY_FACTORS:
        roots = real_roots(factor)
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


def cluster_values(values) -> list[list[float]]:
    clusters = [[values[0]]]
    for prev, cur in zip(values, values[1:]):
        if cur - prev > CLUSTER_GAP:
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
