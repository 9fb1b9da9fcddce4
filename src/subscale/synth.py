"""Deterministic synthetic fixtures with known ground truth.

Curves are sampled from a closed-form loss law on a (model size, token
checkpoint) grid, optionally with multiplicative lognormal noise; blobs are
isotropic Gaussian clusters.  Both draw from the portable SplitMix64 stream
in a documented order (sizes then checkpoints; clusters then samples then
components), so a spec plus seed pins every byte of a fixture.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from . import jsondoc
from .laws import LawParams, loss_at, params_from_dict, params_to_dict
from .rng import SplitMix64
from .runs import _MAX_COUNT, RunSeries, TrainingRun

if TYPE_CHECKING:
    from .density import EmbeddingSet

# Parameter counts of the reference model ladder (20M .. 7.03B).
LADDER_MODEL_SIZES: tuple[int, ...] = tuple(
    int(m * 1_000_000)
    for m in (20, 47, 113, 241, 487, 736, 936, 1330, 2510, 4700, 7030)
)


def _seed(value) -> int:
    """A spec's seed: SplitMix64's range, checked when the spec is built."""
    seed = jsondoc.integer(value, "spec 'seed'")
    if not 0 <= seed < 2**64:
        raise ValueError(f"spec 'seed' must be in [0, 2^64), got {seed}")
    return seed


@dataclass(frozen=True)
class CurveSpec:
    """Grid of (N, token checkpoints) to sample from a loss law."""

    law: LawParams
    model_sizes: tuple[int, ...]
    token_checkpoints: tuple[tuple[int, ...], ...]
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.law, LawParams):
            raise ValueError(f"spec 'law' must be law params, got {self.law!r}")
        sizes, grids = "spec 'model_sizes'", "spec 'token_checkpoints'"
        jsondoc.store(
            self,
            model_sizes=tuple(
                jsondoc.integer(n, sizes) for n in jsondoc.array(self.model_sizes, sizes)
            ),
            token_checkpoints=tuple(
                tuple(jsondoc.integer(t, grids) for t in jsondoc.array(row, grids))
                for row in jsondoc.array(self.token_checkpoints, grids)
            ),
            noise_sigma=jsondoc.number(self.noise_sigma, "spec 'noise_sigma'"),
            seed=_seed(self.seed),
        )
        if len(self.model_sizes) == 0:
            raise ValueError("model_sizes must be non-empty")
        if len(self.token_checkpoints) != len(self.model_sizes):
            raise ValueError("token_checkpoints must have one list per model size")
        for size in self.model_sizes:
            if not size > 0:
                raise ValueError("model sizes must be > 0")
        for checkpoints in self.token_checkpoints:
            if len(checkpoints) == 0:
                raise ValueError("each model size needs at least one token checkpoint")
            if any(t <= 0 for t in checkpoints):
                raise ValueError("token checkpoints must be > 0")
            if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
                raise ValueError("token checkpoints must strictly increase")
        if not self.noise_sigma >= 0:
            raise ValueError("noise_sigma must be finite and >= 0")

    def to_dict(self) -> dict:
        return {"kind": "curves", **asdict(self), "law": params_to_dict(self.law)}

    @staticmethod
    def from_dict(data: dict) -> "CurveSpec":
        """The spec from its JSON object; its counts must be below 2^53, as in a runs file."""
        spec = CurveSpec(
            law=params_from_dict(jsondoc.get(data, "law", "spec")),
            model_sizes=jsondoc.get(data, "model_sizes", "spec"),
            token_checkpoints=jsondoc.get(data, "token_checkpoints", "spec"),
            noise_sigma=data.get("noise_sigma", 0.0),
            seed=data.get("seed", 0),
        )
        # read back, the runs file that synth writes must hold counts below 2^53
        for n in data["model_sizes"]:
            jsondoc.integer(n, "spec 'model_sizes'", _MAX_COUNT)
        for row in data["token_checkpoints"]:
            for t in row:
                jsondoc.integer(t, "spec 'token_checkpoints'", _MAX_COUNT)
        return spec


@dataclass(frozen=True)
class BlobCluster:
    n_samples: int
    centroid: tuple[float, ...]
    spread: float

    def __post_init__(self):
        where = "spec 'centroid'"
        jsondoc.store(
            self,
            n_samples=jsondoc.integer(self.n_samples, "spec 'n_samples'"),
            centroid=tuple(jsondoc.number(c, where) for c in jsondoc.array(self.centroid, where)),
            spread=jsondoc.number(self.spread, "spec 'spread'"),
        )
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if not self.spread > 0:
            raise ValueError("spreads must be > 0")


@dataclass(frozen=True)
class BlobSpec:
    """Isotropic Gaussian clusters in a shared embedding space."""

    k: int
    dim: int
    per_cluster: tuple[BlobCluster, ...]
    seed: int = 0

    def __post_init__(self):
        where = "spec 'per_cluster'"
        jsondoc.store(
            self,
            k=jsondoc.integer(self.k, "spec 'k'"),
            dim=jsondoc.integer(self.dim, "spec 'dim'"),
            per_cluster=tuple(jsondoc.array(self.per_cluster, where)),
            seed=_seed(self.seed),
        )
        if self.k != len(self.per_cluster):
            raise ValueError("k must equal the number of cluster specs")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        centroids = set()
        for blob in self.per_cluster:
            if not isinstance(blob, BlobCluster):
                raise ValueError(f"{where} entries must be BlobCluster, got {blob!r}")
            if len(blob.centroid) != self.dim:
                raise ValueError("centroid dimensionality mismatch")
            if blob.centroid in centroids:
                raise ValueError("centroids must be distinct")
            centroids.add(blob.centroid)

    def to_dict(self) -> dict:
        return {"kind": "blobs", **asdict(self)}

    @staticmethod
    def from_dict(data: dict) -> "BlobSpec":
        where = "spec 'per_cluster' entry"
        clusters = jsondoc.array(jsondoc.get(data, "per_cluster", "spec"), "spec 'per_cluster'")
        return BlobSpec(
            k=jsondoc.get(data, "k", "spec"),
            dim=jsondoc.get(data, "dim", "spec"),
            per_cluster=tuple(
                BlobCluster(*[jsondoc.get(b, f.name, where) for f in fields(BlobCluster)])
                for b in clusters
            ),
            seed=data.get("seed", 0),
        )


def load_spec(path) -> CurveSpec | BlobSpec:
    """Load a generator spec from JSON; ``kind`` picks the type."""
    data = jsondoc.load(path, "synth spec")
    kind = jsondoc.get(data, "kind", "spec")
    if kind == "curves":
        return CurveSpec.from_dict(data)
    if kind == "blobs":
        return BlobSpec.from_dict(data)
    raise ValueError(f"unknown spec kind {kind!r}")


def gen_curves(spec: CurveSpec) -> RunSeries:
    """Sample the law on the grid; one run per model size.

    With noise_sigma > 0 each loss is multiplied by exp(sigma * z) with z a
    standard normal from the seeded stream, so losses stay positive and the
    noise is relative.
    """
    rng = SplitMix64(spec.seed)
    records = []
    for i, (size, checkpoints) in enumerate(
        zip(spec.model_sizes, spec.token_checkpoints)
    ):
        run_id = f"run{i:02d}-n{size}"
        # one evaluation per run; elementwise, so each value equals the
        # scalar loss_at of its record
        losses = loss_at(spec.law, size, np.asarray(checkpoints, dtype=float)).tolist()
        for step, (tokens, loss) in enumerate(zip(checkpoints, losses), start=1):
            if spec.noise_sigma > 0:
                try:
                    loss *= math.exp(spec.noise_sigma * rng.normal())
                except OverflowError:  # the validator names the record
                    loss = math.inf
            records.append(
                TrainingRun(
                    run_id=run_id,
                    model_size=size,
                    tokens=tokens,
                    loss=loss,
                    step=step,
                    dataset_tag="synthetic",
                )
            )
    return RunSeries(records)


def otr_checkpoints(
    model_sizes, otr_values
) -> tuple[tuple[int, ...], ...]:
    """Token checkpoints at fixed over-training ratios per model size."""
    grids = []
    for size in model_sizes:
        tokens = tuple(int(round(r * size)) for r in otr_values)
        grids.append(tokens)
    return tuple(grids)


def gen_blobs(spec: BlobSpec) -> tuple[EmbeddingSet, np.ndarray]:
    """Draw the blob fixture; returns the embeddings and generating labels."""
    from .density import EmbeddingSet

    rng = SplitMix64(spec.seed)
    rows = []
    labels = []
    for cid, blob in enumerate(spec.per_cluster):
        centroid = np.asarray(blob.centroid, dtype=float)
        for _ in range(blob.n_samples):
            noise = rng.normals(spec.dim)
            rows.append(centroid + blob.spread * noise)
            labels.append(cid)
    return EmbeddingSet(np.vstack(rows)), np.asarray(labels, dtype=int)
