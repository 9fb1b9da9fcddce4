"""The fast density paths against the straightforward code they replaced.

``select_low_density`` runs as a k-way merge over per-cluster sequences and
``kmeans`` reuses cached row norms.  The references below are the earlier
implementations, kept here only as oracles: the greedy selection that
rescans every cluster after each removal and recomputes the dataset density
from scratch, and k-means that recomputes row norms for every distance.
Both fast paths must agree with them exactly, ties included.
"""

import math

import numpy as np
import pytest

from subscale import density
from subscale.density import Clustering, EmbeddingSet
from subscale.errors import DegenerateGeometry, KTooLarge, TargetUnreachable
from subscale.rng import SplitMix64

# ---------------------------------------------------------------------------
# Reference: greedy selection with a full rescan per removal
# ---------------------------------------------------------------------------


class _ClusterState:
    __slots__ = ("order", "dists", "ptr", "count", "dist_sum", "centroid_dist")

    def __init__(self, rows, dists, centroid_dist):
        order = np.lexsort((rows, dists))  # distance, then row id
        self.order = rows[order]
        self.dists = dists[order]
        self.ptr = 0
        self.count = len(rows)
        self.dist_sum = float(dists.sum())
        self.centroid_dist = centroid_dist

    def log_density(self, dim, radius_floor):
        radius = max(self.dist_sum / self.count, radius_floor)
        return density.log_density_from_radius(self.count, dim, radius)

    def pop_closest(self):
        row = int(self.order[self.ptr])
        self.dist_sum -= float(self.dists[self.ptr])
        self.ptr += 1
        self.count -= 1
        return row


def _reference_dataset_log_density(states, dim, n_total, radius_floor):
    live = [s for s in states if s.count > 0]
    dists = np.array([s.centroid_dist for s in live])
    if float(dists.max(initial=0.0)) == 0.0:
        raise DegenerateGeometry()
    denoms = np.array(
        [density._log1p_density(s.log_density(dim, radius_floor)) for s in live]
    )
    radius = float(np.mean(dists / denoms))
    return density.log_density_from_radius(n_total, dim, radius)


def reference_select(
    embeddings,
    clustering,
    keep_fraction=None,
    target_log_density=None,
    radius_floor=density.DEFAULT_RADIUS_FLOOR,
):
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

    centroid_offsets = np.linalg.norm(
        clustering.centroids - clustering.grand_centroid[None, :], axis=1
    )
    states = []
    for cid in range(clustering.k):
        rows = np.flatnonzero(clustering.assignment == cid)
        dists = np.linalg.norm(
            embeddings.vectors[rows] - clustering.centroids[cid], axis=1
        )
        states.append(_ClusterState(rows, dists, float(centroid_offsets[cid])))

    removed = set()
    retained = n
    while True:
        if keep_fraction is not None:
            if retained <= keep_target:
                break
        else:
            current = _reference_dataset_log_density(states, dim, retained, radius_floor)
            if current <= target_log_density:
                break
            if retained <= 1:
                raise TargetUnreachable(
                    f"log-density {current:.6g} cannot reach {target_log_density:.6g}"
                )
        densest = None
        best = -math.inf
        for cid, state in enumerate(states):
            if state.count == 0:
                continue
            ld = state.log_density(dim, radius_floor)
            if ld > best:
                best = ld
                densest = cid
        if densest is None:
            raise TargetUnreachable("no members left to remove")
        removed.add(states[densest].pop_closest())
        retained -= 1

    return [embeddings.ids[i] for i in range(n) if i not in removed]


# ---------------------------------------------------------------------------
# Reference: k-means recomputing row norms for every distance
# ---------------------------------------------------------------------------


def _reference_sq_distances(x, centers):
    d2 = (
        np.sum(x * x, axis=1)[:, None]
        - 2.0 * (x @ centers.T)
        + np.sum(centers * centers, axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def reference_kmeans(embeddings, k, seed=0, max_iters=100):
    x = embeddings.vectors
    n = embeddings.n_samples
    if k < 1 or k > n:
        raise KTooLarge(k, n)
    if k == n:
        return Clustering.from_parts(np.arange(n), x.copy())

    rng = SplitMix64(seed)

    centers = np.empty((k, x.shape[1]), dtype=float)
    centers[0] = x[rng.randint(n)]
    d2 = _reference_sq_distances(x, centers[:1]).min(axis=1)
    for i in range(1, k):
        if d2.sum() > 0:
            idx = rng.choice_weighted(d2)
        else:
            idx = rng.randint(n)
        centers[i] = x[idx]
        d2 = np.minimum(d2, _reference_sq_distances(x, centers[i : i + 1]).min(axis=1))

    assignment = np.full(n, -1, dtype=int)
    for _ in range(max_iters):
        dists = _reference_sq_distances(x, centers)
        new_assignment = dists.argmin(axis=1)

        counts = np.bincount(new_assignment, minlength=k)
        if np.any(counts == 0):
            member_dist = dists[np.arange(n), new_assignment]
            for cid in np.flatnonzero(counts == 0):
                far = int(member_dist.argmax())
                new_assignment[far] = cid
                member_dist[far] = -1.0
            counts = np.bincount(new_assignment, minlength=k)

        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        for cid in range(k):
            centers[cid] = x[assignment == cid].mean(axis=0)

    return Clustering.from_parts(assignment, centers)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

KEEP_FRACTIONS = (0.9, 0.5, 0.1, 1e-9)
TARGET_DROPS = (0.5, 3.0, 50.0, 1e6)  # nats below the starting density


def _points(rng, kind, n, dim):
    """Random embeddings; most kinds are built to produce exact ties."""
    x = rng.normal(size=(n, dim))
    if kind == "duplicates":
        # few distinct rows, each repeated many times
        x = x[rng.integers(0, max(2, n // 8), size=n)]
    elif kind == "rounded":
        x = np.round(2.0 * x)
    elif kind == "collapsed":
        # whole groups of identical rows: zero radii that hit the floor
        x = np.round(x)[rng.integers(0, 4, size=n)]
    return x


def _clustering(rng, x, k, how):
    n = x.shape[0]
    if how == "kmeans":
        return density.kmeans(EmbeddingSet.from_array(x), k, seed=int(rng.integers(1000)))
    # every cluster non-empty, sizes uneven; centroids at the member means
    labels = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    labels = labels[rng.permutation(n)]
    centroids = np.stack([x[labels == c].mean(axis=0) for c in range(k)])
    return Clustering.from_parts(labels, centroids)


def _outcome(select, emb, clustering, **kwargs):
    try:
        return ("ok", select(emb, clustering, **kwargs))
    except (TargetUnreachable, DegenerateGeometry, ValueError) as exc:
        return (type(exc).__name__, str(exc))


def _assert_same(emb, clustering, **kwargs):
    expected = _outcome(reference_select, emb, clustering, **kwargs)
    got = _outcome(density.select_low_density, emb, clustering, **kwargs)
    assert got == expected


def _start_log_density(emb, clustering, radius_floor):
    try:
        return density.dataset_density(emb, clustering, radius_floor).log_density
    except DegenerateGeometry:
        return 0.0  # both selections must then raise the same error


CASES = [
    (seed, kind, how)
    for seed in range(6)
    for kind in ("random", "duplicates", "rounded", "collapsed")
    for how in ("kmeans", "labels")
]


@pytest.mark.parametrize("seed,kind,how", CASES)
def test_merge_selection_matches_greedy_reference(seed, kind, how):
    rng = np.random.default_rng([seed, len(kind), len(how)])
    n = int(rng.integers(12, 90))
    dim = int(rng.integers(1, 6))
    k = int(rng.integers(1, min(n, 9) + 1))
    x = _points(rng, kind, n, dim)
    emb = EmbeddingSet.from_array(x)
    clustering = _clustering(rng, x, k, how)
    # the large floor makes many radii floored, so cluster densities tie
    for radius_floor in (density.DEFAULT_RADIUS_FLOOR, 0.75):
        for keep in KEEP_FRACTIONS:
            _assert_same(emb, clustering, keep_fraction=keep, radius_floor=radius_floor)
        start = _start_log_density(emb, clustering, radius_floor)
        for drop in TARGET_DROPS:
            _assert_same(
                emb,
                clustering,
                target_log_density=start - drop,
                radius_floor=radius_floor,
            )


def test_merge_selection_empties_small_clusters():
    # one big cluster and several singletons: keep 1e-9 empties all but one
    rng = np.random.default_rng(7)
    x = np.vstack([rng.normal(size=(40, 3)) * 0.1, rng.normal(size=(5, 3)) * 5.0])
    labels = np.array([0] * 40 + [1, 2, 3, 4, 5])
    centroids = np.stack([x[labels == c].mean(axis=0) for c in range(6)])
    emb = EmbeddingSet.from_array(x)
    clustering = Clustering.from_parts(labels, centroids)
    retained = density.select_low_density(emb, clustering, keep_fraction=1e-9)
    assert retained == reference_select(emb, clustering, keep_fraction=1e-9)
    assert len(retained) == 1
    start = density.dataset_density(emb, clustering).log_density
    for drop in TARGET_DROPS:
        _assert_same(emb, clustering, target_log_density=start - drop)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_merge_selection_overflowing_radius_is_never_densest():
    # distances overflow to inf, so cluster 1's log density is -inf: it is
    # never picked, and once cluster 0 is empty nothing is left to remove
    x = np.vstack([np.eye(3)[[0, 1, 2, 0]], np.full((4, 3), 1e300)])
    x[4:] *= np.array([[1.0], [-1.0], [1.0], [-1.0]])
    labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    centroids = np.array([x[:4].mean(axis=0), np.zeros(3)])
    emb = EmbeddingSet.from_array(x)
    clustering = Clustering.from_parts(labels, centroids)
    for keep in (0.75, 0.5, 0.25):
        _assert_same(emb, clustering, keep_fraction=keep)
    with pytest.raises(TargetUnreachable, match="no members left"):
        density.select_low_density(emb, clustering, keep_fraction=0.25)


def test_merge_selection_unreachable_target_message():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(30, 2))
    emb = EmbeddingSet.from_array(x)
    clustering = density.kmeans(emb, 3, seed=0)
    target = density.dataset_density(emb, clustering).log_density - 1e6
    with pytest.raises(TargetUnreachable) as fast:
        density.select_low_density(emb, clustering, target_log_density=target)
    with pytest.raises(TargetUnreachable) as slow:
        reference_select(emb, clustering, target_log_density=target)
    assert str(fast.value) == str(slow.value)
    assert "cannot reach" in str(fast.value)


def test_merge_selection_hypothesis_matches_greedy_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def problems(draw):
        n = draw(st.integers(2, 30))
        dim = draw(st.integers(1, 3))
        # small integer grid: duplicate points and equal distances abound
        coords = draw(
            st.lists(st.integers(-2, 2), min_size=n * dim, max_size=n * dim)
        )
        x = np.array(coords, dtype=float).reshape(n, dim)
        k = draw(st.integers(1, min(n, 5)))
        extra = draw(st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))
        perm = draw(st.permutations(range(n)))
        labels = np.array(list(range(k)) + extra)[list(perm)]
        centroids = np.stack([x[labels == c].mean(axis=0) for c in range(k)])
        floor = draw(st.sampled_from([density.DEFAULT_RADIUS_FLOOR, 0.5, 1.0]))
        if draw(st.booleans()):
            mode = {"keep_fraction": draw(st.floats(1e-9, 1.0))}
        else:
            mode = {"drop": draw(st.floats(0.0, 60.0))}
        return x, labels, centroids, floor, mode

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(problems())
    def check(problem):
        x, labels, centroids, floor, mode = problem
        emb = EmbeddingSet.from_array(x)
        clustering = Clustering.from_parts(labels, centroids)
        if "drop" in mode:
            start = _start_log_density(emb, clustering, floor)
            mode = {"target_log_density": start - mode["drop"]}
        _assert_same(emb, clustering, radius_floor=floor, **mode)

    check()


# ---------------------------------------------------------------------------
# k-means: cached norms change no bit
# ---------------------------------------------------------------------------


def _kmeans_inputs():
    rng = np.random.default_rng(11)
    for case in range(12):
        n = int(rng.integers(3, 120))
        dim = int(rng.integers(1, 20))
        x = rng.normal(size=(n, dim))
        if case % 3 == 1:
            x = x[rng.integers(0, max(2, n // 4), size=n)]  # duplicate rows
        elif case % 3 == 2:
            x = np.round(x)
        for k in sorted({1, 2, min(n - 1, 7), n - 1}):
            yield x, k, case


# With k above the number of distinct rows, both implementations leave a
# cluster empty for one Lloyd step (a NaN centroid, mean of an empty slice)
# before reseeding repairs it; the warning is expected from both.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("x,k,seed", list(_kmeans_inputs()))
def test_kmeans_bit_identical_to_reference(x, k, seed):
    emb = EmbeddingSet.from_array(x)
    got = density.kmeans(emb, k, seed=seed)
    want = reference_kmeans(emb, k, seed=seed)
    assert np.array_equal(got.assignment, want.assignment)
    assert np.array_equal(got.centroids, want.centroids)
