"""Embedding-set density metric and density-based subset selection.

Density of a single cluster is samples per unit ball volume: with N_i
members, dimension n, and mean member-to-centroid distance r_i,

    log rho_i = log N_i + lgamma(n/2 + 1) - (n/2) log pi - n log r_i.

The dataset-level radius averages centroid offsets from the grand centroid,
each inversely weighted by log(rho_i + 1), and the same ball-volume formula
applied to that radius gives the dataset density.  High density means
redundant, low-diversity data.

Everything is computed in log space: the ball-volume constant overflows
64-bit floats for n of a few hundred, routine for text embeddings.  Raw
densities are materialized on request and flagged when they overflow.
"""

from __future__ import annotations

import bisect
import csv
import heapq
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateGeometry,
    EmbeddingFormatError,
    KTooLarge,
    TargetUnreachable,
)
from .rng import SplitMix64

_EMB_MAGIC = b"EMB1"
_LOG_OVERFLOW = 700.0  # exp() overflows IEEE doubles just above 709
DEFAULT_RADIUS_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmbeddingSet:
    """Row-major sample vectors with per-row ids."""

    vectors: np.ndarray
    ids: tuple[str, ...]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def n_samples(self) -> int:
        return self.vectors.shape[0]

    @staticmethod
    def from_array(vectors, ids=None, normalize: bool = False) -> "EmbeddingSet":
        arr = np.asarray(vectors, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("vectors must be a non-empty 2D array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("vectors must be finite")
        if normalize:
            norms = np.linalg.norm(arr, axis=1, keepdims=True)
            if np.any(norms == 0):
                raise ValueError("cannot unit-normalize zero vectors")
            arr = arr / norms
        if ids is None:
            ids = tuple(str(i) for i in range(arr.shape[0]))
        else:
            ids = tuple(str(i) for i in ids)
            if len(ids) != arr.shape[0]:
                raise ValueError("ids length must match number of rows")
        return EmbeddingSet(vectors=arr, ids=ids)


@dataclass(frozen=True)
class Clustering:
    """Partition of rows into k clusters with fixed centroids."""

    k: int
    assignment: np.ndarray
    centroids: np.ndarray
    grand_centroid: np.ndarray

    @staticmethod
    def from_parts(assignment, centroids) -> "Clustering":
        assignment = np.asarray(assignment, dtype=int)
        centroids = np.asarray(centroids, dtype=float)
        k = centroids.shape[0]
        if assignment.min() < 0 or assignment.max() >= k:
            raise ValueError("assignment indices out of range")
        counts = np.bincount(assignment, minlength=k)
        if np.any(counts == 0):
            raise ValueError("every cluster must have at least one member")
        return Clustering(
            k=k,
            assignment=assignment,
            centroids=centroids,
            grand_centroid=centroids.mean(axis=0),
        )


@dataclass(frozen=True)
class ClusterDensity:
    """Per-cluster density summary; radius is floored when degenerate."""

    cluster_id: int
    n_samples: int
    radius: float
    log_density: float
    radius_floored: bool = False

    @property
    def density(self) -> float:
        try:
            return math.exp(self.log_density)
        except OverflowError:
            return math.inf

    def to_dict(self) -> dict:
        raw = self.density
        return {
            "cluster_id": self.cluster_id,
            "n_samples": self.n_samples,
            "radius": self.radius,
            "log_density": self.log_density,
            "density": None if math.isinf(raw) else raw,
            "density_overflowed": math.isinf(raw),
            "radius_floored": self.radius_floored,
        }


@dataclass(frozen=True)
class DatasetDensityReport:
    weighted_radius: float
    log_density: float
    density: float
    normalized_density: float
    per_cluster: tuple[ClusterDensity, ...]
    k: int
    dim: int
    n_total: int

    @property
    def density_overflowed(self) -> bool:
        return math.isinf(self.density)

    def to_dict(self) -> dict:
        return {
            "weighted_radius": self.weighted_radius,
            "log_density": self.log_density,
            "density": None if self.density_overflowed else self.density,
            "density_overflowed": self.density_overflowed,
            "normalized_density": self.normalized_density,
            "k": self.k,
            "dim": self.dim,
            "n_total": self.n_total,
            "per_cluster": [c.to_dict() for c in self.per_cluster],
        }


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------


def _sq_distances(x: np.ndarray, x_sq: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, shape (len(x), len(centers)).

    ``x_sq`` is ``np.sum(x * x, axis=1)``, computed once per k-means call.
    """
    d2 = (
        x_sq[:, None]
        - 2.0 * (x @ centers.T)
        + np.sum(centers * centers, axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def kmeans(
    embeddings: EmbeddingSet, k: int, seed: int = 0, max_iters: int = 100
) -> Clustering:
    """Lloyd iterations with k-means++ seeding from the portable RNG.

    Deterministic for a fixed seed; empty clusters are reseeded from the
    point currently farthest from its centroid, so no cluster ends empty.
    """
    x = embeddings.vectors
    n = embeddings.n_samples
    if k < 1 or k > n:
        raise KTooLarge(k, n)
    if k == n:
        return Clustering.from_parts(np.arange(n), x.copy())

    rng = SplitMix64(seed)
    x_sq = np.sum(x * x, axis=1)

    centers = np.empty((k, x.shape[1]), dtype=float)
    centers[0] = x[rng.randint(n)]
    d2 = _sq_distances(x, x_sq, centers[:1]).min(axis=1)
    for i in range(1, k):
        if d2.sum() > 0:
            idx = rng.choice_weighted(d2)
        else:
            idx = rng.randint(n)
        centers[i] = x[idx]
        d2 = np.minimum(d2, _sq_distances(x, x_sq, centers[i : i + 1]).min(axis=1))

    assignment = np.full(n, -1, dtype=int)
    for _ in range(max_iters):
        dists = _sq_distances(x, x_sq, centers)
        new_assignment = dists.argmin(axis=1)

        counts = np.bincount(new_assignment, minlength=k)
        if np.any(counts == 0):
            member_dist = dists[np.arange(n), new_assignment]
            for cid in np.flatnonzero(counts == 0):
                far = int(member_dist.argmax())
                new_assignment[far] = cid
                member_dist[far] = -1.0  # do not reuse for another empty cluster
            counts = np.bincount(new_assignment, minlength=k)

        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        for cid in range(k):
            centers[cid] = x[assignment == cid].mean(axis=0)

    return Clustering.from_parts(assignment, centers)


# ---------------------------------------------------------------------------
# Density
# ---------------------------------------------------------------------------


def log_density_from_radius(n_samples: int, dim: int, radius: float) -> float:
    """log of (samples / volume of the dim-ball with the given radius)."""
    if not radius > 0:
        raise ValueError("radius must be > 0")
    return (
        math.log(n_samples)
        + math.lgamma(dim / 2.0 + 1.0)
        - (dim / 2.0) * math.log(math.pi)
        - dim * math.log(radius)
    )


def _log1p_density(log_rho: float) -> float:
    """Stable log(rho + 1) from log rho, floored at 1e-12."""
    if log_rho > _LOG_OVERFLOW:
        value = log_rho
    else:
        value = math.log1p(math.exp(log_rho))
    return max(value, 1e-12)


def cluster_density(
    embeddings: EmbeddingSet,
    clustering: Clustering,
    cluster_id: int,
    radius_floor: float = DEFAULT_RADIUS_FLOOR,
) -> ClusterDensity:
    """Density of one cluster from its mean member-to-centroid distance."""
    members = np.flatnonzero(clustering.assignment == cluster_id)
    if members.size == 0:
        raise ValueError(f"cluster {cluster_id} is empty")
    centroid = clustering.centroids[cluster_id]
    dists = np.linalg.norm(embeddings.vectors[members] - centroid, axis=1)
    raw_radius = float(dists.mean())
    floored = raw_radius < radius_floor
    radius = max(raw_radius, radius_floor)
    return ClusterDensity(
        cluster_id=int(cluster_id),
        n_samples=int(members.size),
        radius=radius,
        log_density=log_density_from_radius(members.size, embeddings.dim, radius),
        radius_floored=floored,
    )


def dataset_radius(
    clustering: Clustering, per_cluster: list[ClusterDensity] | tuple[ClusterDensity, ...]
) -> float:
    """Mean centroid offset from the grand centroid, density-weighted.

    Each cluster's distance to the grand centroid is divided by
    log(rho_i + 1), so dense clusters pull the dataset radius down.
    """
    by_id = {c.cluster_id: c for c in per_cluster}
    if sorted(by_id) != list(range(clustering.k)):
        raise ValueError("per_cluster must cover every cluster exactly once")
    dists = np.linalg.norm(
        clustering.centroids - clustering.grand_centroid[None, :], axis=1
    )
    denoms = np.array(
        [_log1p_density(by_id[cid].log_density) for cid in range(clustering.k)]
    )
    return _weighted_radius(dists, denoms)


def _weighted_radius(offsets: np.ndarray, denoms: np.ndarray) -> float:
    """Mean of centroid offsets over log(rho_i + 1), one entry per cluster."""
    if float(offsets.max(initial=0.0)) == 0.0:
        raise DegenerateGeometry()
    return float(np.mean(offsets / denoms))


def dataset_density(
    embeddings: EmbeddingSet,
    clustering: Clustering,
    radius_floor: float = DEFAULT_RADIUS_FLOOR,
) -> DatasetDensityReport:
    """Full density report: per-cluster densities plus the dataset metric."""
    per_cluster = tuple(
        cluster_density(embeddings, clustering, cid, radius_floor)
        for cid in range(clustering.k)
    )
    radius = dataset_radius(clustering, per_cluster)
    log_rho = log_density_from_radius(embeddings.n_samples, embeddings.dim, radius)
    try:
        raw = math.exp(log_rho)
    except OverflowError:
        raw = math.inf
    return DatasetDensityReport(
        weighted_radius=radius,
        log_density=log_rho,
        density=raw,
        normalized_density=math.exp(log_rho / embeddings.dim),
        per_cluster=per_cluster,
        k=clustering.k,
        dim=embeddings.dim,
        n_total=embeddings.n_samples,
    )


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------


def select_low_density(
    embeddings: EmbeddingSet,
    clustering: Clustering,
    keep_fraction: float | None = None,
    target_log_density: float | None = None,
    radius_floor: float = DEFAULT_RADIUS_FLOOR,
) -> list[str]:
    """Greedily prune dense clusters; return the retained sample ids.

    Each step removes, from the cluster with the highest current log
    density, the member closest to that cluster's centroid (the most
    redundant sample); the cluster's radius is the mean of its remaining
    member distances.  Stops once the kept fraction or the target dataset
    log-density is reached.  Ties break toward the lowest cluster id and
    lowest row.

    A cluster's density depends only on its own removals, so the greedy
    rule is a k-way merge of per-cluster sequences: a heap keyed
    ``(-log_density, cluster_id)`` yields the same removal at every step
    in O(log k), without assuming the sequences are monotone.
    """
    if (keep_fraction is None) == (target_log_density is None):
        raise ValueError("give exactly one of keep_fraction or target_log_density")
    n = embeddings.n_samples
    dim = embeddings.dim
    if keep_fraction is not None:
        if not 0.0 < keep_fraction <= 1.0:
            raise TargetUnreachable(f"keep_fraction {keep_fraction!r} not in (0, 1]")
        keep_target = max(1, math.ceil(keep_fraction * n))
        if keep_target == n:
            return list(embeddings.ids)

    # Per cluster: rows closest first (distance, then row id), and the
    # member-distance sum after each removal.  The sum starts from the
    # row-order total and subtracts one distance at a time; accumulate is
    # that same left fold, so every sum matches a running ``-=`` bit for bit.
    order: list[list[int]] = []
    dist_sums: list[list[float]] = []
    for cid in range(clustering.k):
        rows = np.flatnonzero(clustering.assignment == cid)
        dists = np.linalg.norm(
            embeddings.vectors[rows] - clustering.centroids[cid], axis=1
        )
        by_dist = np.lexsort((rows, dists))
        order.append(rows[by_dist].tolist())
        steps = np.concatenate(([float(dists.sum())], dists[by_dist]))
        dist_sums.append(np.subtract.accumulate(steps).tolist())
    taken = [0] * clustering.k

    def cluster_log_density(cid: int) -> float:
        count = len(order[cid]) - taken[cid]
        radius = max(dist_sums[cid][taken[cid]] / count, radius_floor)
        return log_density_from_radius(count, dim, radius)

    live = [cid for cid in range(clustering.k) if order[cid]]
    live_log_density = [cluster_log_density(cid) for cid in live]
    heap = [(-ld, cid) for cid, ld in zip(live, live_log_density)]
    heapq.heapify(heap)
    if target_log_density is not None:
        # the dataset density's terms for the live clusters, in id order
        live_offsets = np.linalg.norm(
            clustering.centroids - clustering.grand_centroid[None, :], axis=1
        )[live]
        live_denoms = np.array([_log1p_density(ld) for ld in live_log_density])

    removed = np.zeros(n, dtype=bool)
    retained = n
    while True:
        if keep_fraction is not None:
            if retained <= keep_target:
                break
        else:
            radius = _weighted_radius(live_offsets, live_denoms)
            current = log_density_from_radius(retained, dim, radius)
            if current <= target_log_density:
                break
            if retained <= 1:
                raise TargetUnreachable(
                    f"log-density {current:.6g} cannot reach {target_log_density:.6g}"
                )
        # a log density of -inf (overflowed radius) is never the densest
        if not heap or heap[0][0] == math.inf:
            raise TargetUnreachable("no members left to remove")
        _, cid = heapq.heappop(heap)
        removed[order[cid][taken[cid]]] = True
        taken[cid] += 1
        retained -= 1
        emptied = taken[cid] == len(order[cid])
        if not emptied:
            ld = cluster_log_density(cid)
            heapq.heappush(heap, (-ld, cid))
        if target_log_density is not None:
            pos = bisect.bisect_left(live, cid)
            if emptied:
                del live[pos]
                live_offsets = np.delete(live_offsets, pos)
                live_denoms = np.delete(live_denoms, pos)
            else:
                live_denoms[pos] = _log1p_density(ld)

    return [sid for sid, gone in zip(embeddings.ids, removed) if not gone]


def subset_embeddings(embeddings: EmbeddingSet, ids: list[str]) -> np.ndarray:
    """Boolean row mask for the given ids (order-independent)."""
    wanted = set(ids)
    return np.array([i in wanted for i in embeddings.ids], dtype=bool)


def restrict_clustering(clustering: Clustering, keep_mask: np.ndarray) -> Clustering:
    """Clustering over the kept rows with the original centroids.

    Centroids are deliberately not recomputed: selection reasons about the
    fixed geometry, and density comparisons before/after pruning must use
    the same centroids to be meaningful.  Emptied clusters are dropped and
    the remaining ones renumbered.
    """
    assignment = clustering.assignment[keep_mask]
    live = np.unique(assignment)
    remap = {int(old): new for new, old in enumerate(live)}
    new_assignment = np.array([remap[int(a)] for a in assignment], dtype=int)
    return Clustering.from_parts(new_assignment, clustering.centroids[live])


def apply_selection(
    embeddings: EmbeddingSet, clustering: Clustering, ids: list[str]
) -> tuple[EmbeddingSet, Clustering]:
    """Embedding subset plus the restricted clustering for the kept ids."""
    mask = subset_embeddings(embeddings, ids)
    kept = EmbeddingSet(
        vectors=embeddings.vectors[mask],
        ids=tuple(i for i, m in zip(embeddings.ids, mask) if m),
    )
    return kept, restrict_clustering(clustering, mask)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def save_embeddings(path, embeddings: EmbeddingSet) -> None:
    """Write `.csv` as `id,v0,v1,...`; anything else as the binary format.

    Binary layout: magic ``EMB1``, then dim and row count as little-endian
    uint64, then row-major float32 values.  Ids are not stored in binary
    files; rows reload with index ids.
    """
    path = Path(path)
    if path.suffix.lower() == ".csv":
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id"] + [f"v{i}" for i in range(embeddings.dim)])
            for sample_id, row in zip(embeddings.ids, embeddings.vectors):
                writer.writerow([sample_id] + [repr(float(v)) for v in row])
        return
    data = embeddings.vectors.astype("<f4").tobytes(order="C")
    with path.open("wb") as fh:
        fh.write(_EMB_MAGIC)
        fh.write(struct.pack("<QQ", embeddings.dim, embeddings.n_samples))
        fh.write(data)


def load_embeddings(path, normalize: bool = False) -> EmbeddingSet:
    """Read either embedding format; see :func:`save_embeddings`."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        with path.open("r", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header or header[0] != "id":
                raise EmbeddingFormatError(str(path), "expected header id,v0,v1,...")
            ids = []
            rows = []
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise EmbeddingFormatError(
                        str(path), f"line {line_no}: expected {len(header)} columns"
                    )
                ids.append(row[0])
                try:
                    rows.append([float(v) for v in row[1:]])
                except ValueError:
                    raise EmbeddingFormatError(
                        str(path), f"line {line_no}: non-numeric component"
                    ) from None
            if not rows:
                raise EmbeddingFormatError(str(path), "no rows")
        return EmbeddingSet.from_array(np.array(rows), ids, normalize=normalize)

    raw = path.read_bytes()
    if len(raw) < 20 or raw[:4] != _EMB_MAGIC:
        raise EmbeddingFormatError(str(path), "missing EMB1 magic")
    dim, count = struct.unpack("<QQ", raw[4:20])
    expected = 20 + dim * count * 4
    if len(raw) != expected:
        raise EmbeddingFormatError(
            str(path), f"expected {expected} bytes for {count}x{dim}, got {len(raw)}"
        )
    vectors = np.frombuffer(raw, dtype="<f4", offset=20).astype(float)
    vectors = vectors.reshape(count, dim)
    return EmbeddingSet.from_array(vectors, normalize=normalize)
