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
densities are fields too: None, and flagged, where they overflow.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    CONTROL_CHARACTER,
    DegenerateGeometry,
    EmbeddingFormatError,
    KTooLarge,
    TargetUnreachable,
    UnfilledClusters,
    utf8_fault,
)
from .rng import SplitMix64

_EMB_MAGIC = b"EMB1"
_LOG_OVERFLOW = 700.0  # exp() overflows IEEE doubles just above 709
# a cluster's radius is floored here, so that one of coincident points has a
# finite density
RADIUS_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmbeddingSet:
    """Row-major sample vectors with per-row ids, index ids by default."""

    vectors: np.ndarray
    ids: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.vectors, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("vectors must be a non-empty 2D array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("vectors must be finite")
        if self.ids is None:
            ids = tuple(str(i) for i in range(arr.shape[0]))
        else:
            ids = tuple(str(i) for i in self.ids)
            if len(ids) != arr.shape[0]:
                raise ValueError("ids length must match number of rows")
            # a saved CSV of such an id would not load again
            for row, sample_id in enumerate(ids):
                control = CONTROL_CHARACTER.search(sample_id)
                if control:
                    raise ValueError(
                        f"row {row}: id {sample_id!r} holds the control "
                        f"character {control.group()!r}"
                    )
        object.__setattr__(self, "vectors", arr)
        object.__setattr__(self, "ids", ids)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def n_samples(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class Clustering:
    """Partition of rows into k non-empty clusters with fixed centroids."""

    assignment: np.ndarray
    centroids: np.ndarray
    k: int = field(init=False)
    grand_centroid: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        assignment = np.asarray(self.assignment)
        if assignment.ndim != 1 or assignment.size == 0 or assignment.dtype.kind not in "iu":
            raise ValueError("assignment must be a non-empty 1D integer array")
        centroids = np.asarray(self.centroids, dtype=float)
        if centroids.ndim != 2 or not np.all(np.isfinite(centroids)):
            raise ValueError("centroids must be a finite 2D array")
        k = centroids.shape[0]
        if assignment.min() < 0 or assignment.max() >= k:
            raise ValueError("assignment indices out of range")
        counts = np.bincount(assignment, minlength=k)
        if np.any(counts == 0):
            raise ValueError("every cluster must have at least one member")
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "centroids", centroids)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "grand_centroid", centroids.mean(axis=0))


def _fill_raw_density(summary) -> None:
    """Set ``density`` to exp(log_density), None where it overflows a double."""
    try:
        raw = math.exp(summary.log_density)
    except OverflowError:
        raw = None
    object.__setattr__(summary, "density", raw)
    object.__setattr__(summary, "density_overflowed", raw is None)


@dataclass(frozen=True)
class ClusterDensity:
    """Per-cluster density summary; radius is floored when degenerate."""

    cluster_id: int
    n_samples: int
    radius: float
    log_density: float
    radius_floored: bool = False
    density: float | None = field(init=False)
    density_overflowed: bool = field(init=False)

    def __post_init__(self) -> None:
        _fill_raw_density(self)


@dataclass(frozen=True)
class DatasetDensityReport:
    weighted_radius: float
    log_density: float
    normalized_density: float
    per_cluster: tuple[ClusterDensity, ...]
    k: int
    dim: int
    n_total: int
    density: float | None = field(init=False)
    density_overflowed: bool = field(init=False)

    def __post_init__(self) -> None:
        _fill_raw_density(self)


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------


def _sq_distances(
    x: np.ndarray, x_sq: np.ndarray, centers: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Squared Euclidean distances, written into ``out`` of shape (len(x), len(centers)).

    ``x_sq`` is ``np.sum(x * x, axis=1)``, computed once per k-means call.  The
    steps are those of ``max(x_sq[:, None] - 2.0 * (x @ centers.T) + c_sq, 0)``
    in that order, so each value is that expression's bit for bit.
    """
    np.matmul(x, centers.T, out=out)
    np.multiply(out, 2.0, out=out)
    np.subtract(x_sq[:, None], out, out=out)
    np.add(out, np.sum(centers * centers, axis=1), out=out)
    return np.maximum(out, 0.0, out=out)


def _rows_by_cluster(assignment: np.ndarray, counts: list[int]) -> list[np.ndarray]:
    """Each cluster's rows, ascending, as slices of one stable sort by cluster.

    Each slice holds what ``np.flatnonzero(assignment == cid)`` gives;
    ``counts`` is the cluster sizes, ``np.bincount(assignment)`` in id order.
    """
    order = np.argsort(assignment, kind="stable")
    ends = itertools.accumulate(counts)
    return [order[end - count : end] for count, end in zip(counts, ends)]


def kmeans(
    embeddings: EmbeddingSet, k: int, seed: int = 0, max_iters: int = 100
) -> Clustering:
    """Lloyd iterations with k-means++ seeding from the portable RNG.

    Deterministic for a fixed seed; empty clusters are reseeded from the
    point currently farthest from its centroid, so no cluster ends empty.

    Buffers: seeding writes each new center's squared distances into
    ``column`` (n, 1) and keeps the running minimum in ``d2`` (n,); every
    Lloyd step writes its distances into ``dists`` (n, k).  Bit-identity
    rules: the distances keep the operations of ``max(x_sq - 2 (x @ c.T) +
    c_sq, 0)`` in that order, and a centroid is the ``mean`` of ``x[rows]``
    with ``rows`` a slice of one stable argsort of the assignment, ascending
    as ``x[assignment == cid]`` gives them.  A ``reduceat`` over a sorted
    copy of ``x`` would sum in another order and move centroids by ~1e-16.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    x = embeddings.vectors
    n = embeddings.n_samples
    if k < 1 or k > n:
        raise KTooLarge(k, n)
    rng = SplitMix64(seed)
    if k == n:
        return Clustering(np.arange(n), x.copy())

    x_sq = np.sum(x * x, axis=1)

    centers = np.empty((k, x.shape[1]), dtype=float)
    column = np.empty((n, 1))
    centers[0] = x[rng.randint(n)]
    d2 = _sq_distances(x, x_sq, centers[:1], column)[:, 0].copy()
    for i in range(1, k):
        if d2.sum() > 0:
            idx = rng.choice_weighted(d2)
        else:
            idx = rng.randint(n)
        centers[i] = x[idx]
        np.minimum(d2, _sq_distances(x, x_sq, centers[i : i + 1], column)[:, 0], out=d2)

    dists = np.empty((n, k))
    assignment = np.full(n, -1, dtype=int)
    for _ in range(max_iters):
        _sq_distances(x, x_sq, centers, dists)
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
        for cid, rows in enumerate(_rows_by_cluster(assignment, counts.tolist())):
            # a reseed can empty another cluster; its centroid is then NaN,
            # the mean of no rows, without numpy's empty-slice warnings
            centers[cid] = x[rows].mean(axis=0) if rows.size else np.nan

    if np.any(counts == 0):  # counts is of the final assignment
        raise UnfilledClusters(k, len(np.unique(x, axis=0)), int(np.sum(counts == 0)))
    return Clustering(assignment, centers)


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


# The per-cluster terms that the report and the selection both read.


def _members(
    embeddings: EmbeddingSet, clustering: Clustering
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each cluster's rows, ascending, and their distances to its centroid."""
    n, dim = embeddings.vectors.shape
    if clustering.assignment.shape != (n,) or clustering.centroids.shape[1:] != (dim,):
        raise ValueError(
            f"a clustering of assignment shape {clustering.assignment.shape} and centroid "
            f"shape {clustering.centroids.shape} does not fit {n} embeddings of dimension {dim}"
        )
    counts = np.bincount(clustering.assignment, minlength=clustering.k).tolist()
    return [
        (rows, np.linalg.norm(embeddings.vectors[rows] - centroid, axis=1))
        for rows, centroid in zip(
            _rows_by_cluster(clustering.assignment, counts), clustering.centroids
        )
    ]


def _floored_log_density(count: int, dim: int, dist_sum: float) -> tuple[float, float]:
    """Mean member distance floored at ``RADIUS_FLOOR``, and its log density."""
    radius = max(dist_sum / count, RADIUS_FLOOR)
    return radius, log_density_from_radius(count, dim, radius)


def _centroid_offsets(clustering: Clustering) -> np.ndarray:
    """Each centroid's distance to the grand centroid, in cluster id order."""
    return np.linalg.norm(
        clustering.centroids - clustering.grand_centroid[None, :], axis=1
    )


def _cluster_summary(cluster_id: int, dim: int, dists: np.ndarray) -> ClusterDensity:
    """A cluster's density from its members' distances to its centroid."""
    dist_sum = float(dists.sum())
    radius, log_density = _floored_log_density(dists.size, dim, dist_sum)
    return ClusterDensity(
        cluster_id=int(cluster_id),
        n_samples=int(dists.size),
        radius=radius,
        log_density=log_density,
        radius_floored=dist_sum / dists.size < RADIUS_FLOOR,
    )


def _weighted_radius(offsets: np.ndarray, denoms: np.ndarray) -> float:
    """Mean of centroid offsets over log(rho_i + 1), one entry per cluster."""
    if float(offsets.max()) == 0.0:
        raise DegenerateGeometry()
    return float(np.mean(offsets / denoms))


def dataset_density(embeddings: EmbeddingSet, clustering: Clustering) -> DatasetDensityReport:
    """Full density report: per-cluster densities plus the dataset metric."""
    per_cluster = tuple(
        _cluster_summary(cid, embeddings.dim, dists)
        for cid, (_, dists) in enumerate(_members(embeddings, clustering))
    )
    # each centroid offset over log(rho_i + 1): dense clusters pull the radius down
    denoms = np.array([_log1p_density(c.log_density) for c in per_cluster])
    radius = _weighted_radius(_centroid_offsets(clustering), denoms)
    log_rho = log_density_from_radius(embeddings.n_samples, embeddings.dim, radius)
    return DatasetDensityReport(
        weighted_radius=radius,
        log_density=log_rho,
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
) -> list[int]:
    """Greedily prune dense clusters; return the retained rows, ascending.

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
            raise ValueError(f"keep_fraction {keep_fraction!r} not in (0, 1]")
        keep_target = max(1, math.ceil(keep_fraction * n))
        if keep_target == n:
            return list(range(n))
    elif math.isnan(target_log_density):
        raise ValueError("target_log_density is NaN")

    # Per cluster: rows closest first (distance, then row id), and the
    # member-distance sum after each removal.  The sum starts from the
    # row-order total and subtracts one distance at a time; accumulate is
    # that same left fold, so every sum matches a running ``-=`` bit for bit.
    order: list[list[int]] = []
    dist_sums: list[list[float]] = []
    for rows, dists in _members(embeddings, clustering):
        by_dist = np.lexsort((rows, dists))
        order.append(rows[by_dist].tolist())
        steps = np.concatenate(([float(dists.sum())], dists[by_dist]))
        dist_sums.append(np.subtract.accumulate(steps).tolist())
    taken = [0] * clustering.k

    def cluster_log_density(cid: int) -> float:
        count = len(order[cid]) - taken[cid]
        dist_sum = dist_sums[cid][taken[cid]]
        return _floored_log_density(count, dim, dist_sum)[1]

    live = list(range(clustering.k))
    live_log_density = [cluster_log_density(cid) for cid in live]
    heap = [(-ld, cid) for cid, ld in zip(live, live_log_density)]
    heapq.heapify(heap)
    if target_log_density is not None:
        # the dataset density's terms for the live clusters, in id order
        live_offsets = _centroid_offsets(clustering)[live]
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

    return np.flatnonzero(~removed).tolist()


def apply_selection(
    embeddings: EmbeddingSet, clustering: Clustering, rows: list[int]
) -> tuple[EmbeddingSet, Clustering]:
    """The given rows, and their clustering over the original centroids.

    Centroids are deliberately not recomputed: selection reasons about the
    fixed geometry, and density comparisons before/after pruning must use
    the same centroids to be meaningful.  Emptied clusters are dropped and
    the remaining ones renumbered in id order.
    """
    n = embeddings.n_samples
    if not len(rows) or min(rows) < 0 or max(rows) >= n:
        raise ValueError(f"rows must be a non-empty selection of rows in [0, {n})")
    live, assignment = np.unique(clustering.assignment[rows], return_inverse=True)
    kept = EmbeddingSet(embeddings.vectors[rows], tuple(embeddings.ids[i] for i in rows))
    return kept, Clustering(assignment, clustering.centroids[live])


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
        import csv

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


def _csv_rows(path: Path, fh):
    """The rows of an embedding CSV; a row that ``csv`` cannot read, or that is
    not UTF-8, is an EmbeddingFormatError."""
    import csv

    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:  # such as a field beyond csv's size limit
        raise EmbeddingFormatError(str(path), f"line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise EmbeddingFormatError(str(path), f"not UTF-8 text: {utf8_fault(path, exc)}") from None


def load_embeddings(path, normalize: bool = False) -> EmbeddingSet:
    """Read either format (see :func:`save_embeddings`), rows unit length if ``normalize``."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        with path.open("r", newline="", encoding="utf-8") as fh:
            reader = _csv_rows(path, fh)
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
                control = CONTROL_CHARACTER.search(row[0])
                if control:
                    raise EmbeddingFormatError(
                        str(path),
                        f"line {line_no}: id {row[0]!r} holds the control "
                        f"character {control.group()!r}",
                    )
                ids.append(row[0])
                text = "".join(row[1:])
                try:
                    # float() also reads non-ASCII digits and '_' separators
                    if not text.isascii() or "_" in text:
                        raise ValueError(text)
                    rows.append([float(v) for v in row[1:]])
                except ValueError:
                    raise EmbeddingFormatError(
                        str(path), f"line {line_no}: non-numeric component"
                    ) from None
            if not rows:
                raise EmbeddingFormatError(str(path), "no rows")
        vectors = np.array(rows)
        # beyond the binary format's float32 range squared distances can
        # overflow; a non-finite component is EmbeddingSet's to reject
        huge = np.argwhere(np.isfinite(vectors) & (np.abs(vectors) > np.finfo(np.float32).max))
        if huge.size:
            row, col = huge[0].tolist()
            raise EmbeddingFormatError(
                str(path),
                f"id {ids[row]!r}: {header[col + 1]} = {rows[row][col]!r} is beyond the "
                "float32 range",
            )
        embeddings = EmbeddingSet(vectors, ids)
    else:
        raw = path.read_bytes()
        if len(raw) < 20 or raw[:4] != _EMB_MAGIC:
            raise EmbeddingFormatError(str(path), "missing EMB1 magic")
        dim, count = struct.unpack("<QQ", raw[4:20])
        expected = 20 + dim * count * 4
        if len(raw) != expected:
            raise EmbeddingFormatError(
                str(path), f"expected {expected} bytes for {count}x{dim}, got {len(raw)}"
            )
        with np.errstate(invalid="ignore"):  # a signalling NaN, which EmbeddingSet rejects
            vectors = np.frombuffer(raw, dtype="<f4", offset=20).astype(float)
        vectors = vectors.reshape(count, dim)
        embeddings = EmbeddingSet(vectors)
    if normalize:
        # after the checked build, so that a non-finite row is rejected first;
        # in place, as no caller holds the array yet, and unit rows stay finite
        norms = np.linalg.norm(embeddings.vectors, axis=1, keepdims=True)
        if np.any(norms == 0):
            raise ValueError("cannot unit-normalize zero vectors")
        np.divide(embeddings.vectors, norms, out=embeddings.vectors)
    return embeddings
