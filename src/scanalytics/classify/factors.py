"""Latent scanner factors and cluster assignments.

Each report in a sample contributes one row of scanner indicator features
(detected flag plus a one-hot of the detailed label, per scanner). Factors
are extracted from the eigendecomposition of the feature correlation matrix;
a scanner's loading row aggregates its feature columns by summing absolute
loadings per factor. Scanners are then grouped by seeded k-means on the
loading rows. Correlated scanners land in the same cluster, which is what
lets downstream label proportions discount duplicated votes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..feed import DetailedLabel, ReportTable, ScanReport, distinct
from ..scanners import SCANNER_NAMES

__all__ = [
    "FactorLoadings",
    "ScannerClusterModel",
    "fit_scanner_factors",
    "cluster_scanners",
    "build_cluster_model",
]

N_FACTORS = 5
N_CLUSTERS = 15

# One-hot label slots per scanner (every non-benign value, catch-all included).
_LABEL_SLOTS = tuple(label for label in DetailedLabel if label is not DetailedLabel.Benign)


@dataclass(frozen=True)
class FactorLoadings:
    """Per-scanner factor loadings, factors ordered by explained variance."""

    scanners: tuple[str, ...]
    matrix: np.ndarray  # (n_scanners, n_factors), non-negative
    absent: tuple[str, ...]  # scanners never seen in the sample (zero rows)
    n_reports: int
    seed: int

    def row(self, scanner: str) -> np.ndarray:
        return self.matrix[self.scanners.index(scanner)]


@dataclass(frozen=True)
class ScannerClusterModel:
    """Loadings plus flat cluster ids. Ids are in [0, k); scanners with a
    zero loading row (absent from the fit sample) share the overflow id k."""

    scanners: tuple[str, ...]
    loadings: np.ndarray
    assignment: dict[str, int]
    k: int
    n_reports: int
    seed: int

    @property
    def overflow_id(self) -> int:
        return self.k

    def cluster_of(self, scanner: str) -> int:
        """Cluster id for a scanner; names outside the model get overflow."""
        return self.assignment.get(scanner, self.overflow_id)

    def to_dict(self) -> dict:
        return {
            "scanners": list(self.scanners),
            "loadings": [[float(v) for v in row] for row in self.loadings],
            "assignment": dict(sorted(self.assignment.items())),
            "k": self.k,
            "n_reports": self.n_reports,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ScannerClusterModel":
        return cls(
            scanners=tuple(raw["scanners"]),
            loadings=np.asarray(raw["loadings"], dtype=float),
            assignment={str(k): int(v) for k, v in raw["assignment"].items()},
            k=int(raw["k"]),
            n_reports=int(raw["n_reports"]),
            seed=int(raw["seed"]),
        )


def fit_scanner_factors(
    reports: Sequence[ScanReport] | ReportTable,
    n_factors: int = N_FACTORS,
    seed: int = 0,
) -> FactorLoadings:
    """Extract top factors from a sample of multi-positive reports.

    Requires at least 100 reports, each with positives >= 2. The sign of each
    factor is fixed so its largest-magnitude column loading is positive;
    scanner rows are sums of absolute column loadings and therefore
    non-negative. A report sample where every feature column is constant is
    rejected as degenerate.
    """
    if len(reports) < 100:
        raise ValueError(f"factor fit needs >= 100 reports, got {len(reports)}")
    table = ReportTable.of(reports)
    low = np.flatnonzero(table.positives < 2)
    if len(low):
        raise ValueError(f"{len(low)} sample reports have positives < 2 (e.g. {table.scan_id[low[0]]!r})")

    row, codes = table.flat()
    # Feature columns only for scanners actually appearing in the sample;
    # registry scanners missing from it keep all-zero loading rows.
    used = distinct(table.verdict_scanner[codes])
    present = tuple(table.scanners[i] for i in used.tolist())
    scanners = tuple(sorted(set(SCANNER_NAMES).union(present)))
    n_slots = 1 + len(_LABEL_SLOTS)
    column = np.zeros(len(table.scanners), np.intp)
    column[used] = np.arange(len(used)) * n_slots

    # Each detecting verdict sets its scanner's detected column and its
    # label's column; a label's slot is its value, as `_LABEL_SLOTS` is
    # every label after Benign in order. Only columns some verdict sets can
    # vary, so `X` holds those alone: column j is feature column cols[j].
    keep = table.verdict_detected[codes]
    row, codes = row[keep], codes[keep]
    base = column[table.verdict_scanner[codes]]
    label = base + table.verdict_label[codes]
    cols = distinct(np.concatenate([base, label]))
    X = np.zeros((len(reports), len(cols)))
    X[row, np.searchsorted(cols, base)] = 1.0
    X[row, np.searchsorted(cols, label)] = 1.0

    std = X.std(axis=0)
    varying = std > 0
    if not varying.any():
        raise ValueError("degenerate sample: every scanner feature is constant")

    Z = X[:, varying]
    del X
    Z -= Z.mean(axis=0)
    Z /= std[varying]
    corr = (Z.T @ Z) / len(reports)
    eigvals, eigvecs = np.linalg.eigh(corr)
    order = np.argsort(eigvals)[::-1][:n_factors]
    top_vals = np.clip(eigvals[order], 0.0, None)
    column_loadings = eigvecs[:, order] * np.sqrt(top_vals)

    # Sign convention: the largest-magnitude loading of each factor is positive.
    for f in range(column_loadings.shape[1]):
        pivot = np.argmax(np.abs(column_loadings[:, f]))
        if column_loadings[pivot, f] < 0:
            column_loadings[:, f] = -column_loadings[:, f]

    # A sample with fewer varying columns than factors has no variance left
    # for the rest, so those factors load zero everywhere.
    full = np.zeros((len(present) * n_slots, n_factors))
    full[cols[varying], : column_loadings.shape[1]] = column_loadings

    matrix = np.zeros((len(scanners), n_factors))
    loadings = np.abs(full).reshape(len(present), n_slots, n_factors).sum(axis=1)
    matrix[[scanners.index(name) for name in present]] = loadings

    absent = tuple(sorted(set(scanners).difference(present)))
    return FactorLoadings(
        scanners=scanners, matrix=matrix, absent=absent, n_reports=len(reports), seed=seed
    )


def _kmeans_once(X: np.ndarray, k: int, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    n = len(X)
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = ((X - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total > 0:
            probs = d2 / total
            centers[c] = X[rng.choice(n, p=probs)]
        else:
            centers[c] = X[rng.integers(n)]
        d2 = np.minimum(d2, ((X - centers[c]) ** 2).sum(axis=1))

    labels = np.zeros(n, dtype=int)
    for _ in range(100):
        dists = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = dists.argmin(axis=1)
        new_centers = centers.copy()
        for c in range(k):
            mask = labels == c
            if mask.any():
                new_centers[c] = X[mask].mean(axis=0)
            else:
                new_centers[c] = X[dists[np.arange(n), labels].argmax()]
        if np.array_equal(new_centers, centers):
            break
        centers = new_centers

    dists = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = dists.argmin(axis=1)
    inertia = float(dists[np.arange(n), labels].sum())
    return labels, inertia


def cluster_scanners(
    loadings: FactorLoadings,
    k: int = N_CLUSTERS,
    seed: int = 0,
) -> dict[str, int]:
    """Seeded k-means over nonzero loading rows; best of 10 runs.

    Zero-loading scanners are not clustered: they all receive the overflow
    id k. Cluster ids are canonicalized by first appearance in scanner-name
    order, so identical loading rows always share an id.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    nonzero = np.abs(loadings.matrix).sum(axis=1) > 0
    if int(nonzero.sum()) < k:
        raise ValueError(f"need at least {k} scanners with nonzero loadings, have {int(nonzero.sum())}")

    X = loadings.matrix[nonzero]
    best_labels: np.ndarray | None = None
    best_inertia = np.inf
    for restart in range(10):
        rng = np.random.default_rng((seed, restart))
        labels, inertia = _kmeans_once(X, k, rng)
        if inertia < best_inertia:
            best_inertia = inertia
            best_labels = labels

    # Canonical ids: renumber clusters by first appearance over scanner order.
    remap: dict[int, int] = {}
    canonical = np.empty_like(best_labels)
    for i, raw in enumerate(best_labels):
        if raw not in remap:
            remap[raw] = len(remap)
        canonical[i] = remap[raw]

    assignment: dict[str, int] = {}
    row = 0
    for i, name in enumerate(loadings.scanners):
        if nonzero[i]:
            assignment[name] = int(canonical[row])
            row += 1
        else:
            assignment[name] = k
    return assignment


def build_cluster_model(
    reports: Sequence[ScanReport] | ReportTable,
    k: int = N_CLUSTERS,
    seed: int = 0,
) -> ScannerClusterModel:
    """Fit factors and cluster scanners in one step."""
    loadings = fit_scanner_factors(reports, seed=seed)
    assignment = cluster_scanners(loadings, k=k, seed=seed)
    return ScannerClusterModel(
        scanners=loadings.scanners,
        loadings=loadings.matrix,
        assignment=assignment,
        k=k,
        n_reports=loadings.n_reports,
        seed=seed,
    )
