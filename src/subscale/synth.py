"""Deterministic synthetic fixtures with known ground truth.

Curves are sampled from a closed-form loss law on a (model size, token
checkpoint) grid, optionally with multiplicative lognormal noise; blobs are
isotropic Gaussian clusters.  Both draw from the portable SplitMix64 stream
in a documented order (sizes then checkpoints; clusters then samples then
components), so a spec plus seed pins every byte of a fixture.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .laws import (
    LawParams,
    json_integer,
    json_number,
    loss_at,
    params_from_dict,
    params_to_dict,
)
from .rng import SplitMix64
from .runs import RunSeries, TrainingRun

if TYPE_CHECKING:
    from .density import EmbeddingSet

# Parameter counts of the reference model ladder (20M .. 7.03B).
LADDER_MODEL_SIZES: tuple[int, ...] = tuple(
    int(m * 1_000_000)
    for m in (20, 47, 113, 241, 487, 736, 936, 1330, 2510, 4700, 7030)
)


@dataclass(frozen=True)
class CurveSpec:
    """Grid of (N, token checkpoints) to sample from a loss law."""

    law: LawParams
    model_sizes: tuple[int, ...]
    token_checkpoints: tuple[tuple[int, ...], ...]
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if len(self.model_sizes) == 0:
            raise ValueError("model_sizes must be non-empty")
        if len(self.token_checkpoints) != len(self.model_sizes):
            raise ValueError("token_checkpoints must have one list per model size")
        for size in self.model_sizes:
            if not size > 0:
                raise ValueError("model sizes must be > 0")
        for checkpoints in self.token_checkpoints:
            if len(checkpoints) == 0:
                raise ValueError("each size needs at least one checkpoint")
            if any(t <= 0 for t in checkpoints):
                raise ValueError("token checkpoints must be > 0")
            if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
                raise ValueError("token checkpoints must strictly increase")
        if not 0 <= self.noise_sigma < math.inf:
            raise ValueError("noise_sigma must be finite and >= 0")

    def to_dict(self) -> dict:
        return {
            "kind": "curves",
            "law": params_to_dict(self.law),
            "model_sizes": list(self.model_sizes),
            "token_checkpoints": [list(c) for c in self.token_checkpoints],
            "noise_sigma": self.noise_sigma,
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(data: dict) -> "CurveSpec":
        return CurveSpec(
            law=params_from_dict(_get(data, "law")),
            model_sizes=tuple(_integers(_get(data, "model_sizes"), "model_sizes")),
            token_checkpoints=tuple(
                tuple(_integers(row, "token_checkpoints"))
                for row in _list(_get(data, "token_checkpoints"), "token_checkpoints")
            ),
            noise_sigma=_number(data.get("noise_sigma", 0.0), "noise_sigma"),
            seed=_integer(data.get("seed", 0), "seed"),
        )


@dataclass(frozen=True)
class BlobCluster:
    n_samples: int
    centroid: tuple[float, ...]
    spread: float


@dataclass(frozen=True)
class BlobSpec:
    """Isotropic Gaussian clusters in a shared embedding space."""

    k: int
    dim: int
    per_cluster: tuple[BlobCluster, ...]
    seed: int = 0

    def __post_init__(self):
        if self.k != len(self.per_cluster):
            raise ValueError("k must equal the number of cluster specs")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        centroids = set()
        for blob in self.per_cluster:
            if blob.n_samples < 1:
                raise ValueError("each cluster needs at least one sample")
            if not blob.spread > 0:
                raise ValueError("spreads must be > 0")
            if len(blob.centroid) != self.dim:
                raise ValueError("centroid dimensionality mismatch")
            key = tuple(float(c) for c in blob.centroid)
            if key in centroids:
                raise ValueError("centroids must be distinct")
            centroids.add(key)

    def to_dict(self) -> dict:
        return {
            "kind": "blobs",
            "k": self.k,
            "dim": self.dim,
            "per_cluster": [
                {
                    "n_samples": b.n_samples,
                    "centroid": list(b.centroid),
                    "spread": b.spread,
                }
                for b in self.per_cluster
            ],
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(data: dict) -> "BlobSpec":
        return BlobSpec(
            k=_integer(_get(data, "k"), "k"),
            dim=_integer(_get(data, "dim"), "dim"),
            per_cluster=tuple(
                BlobCluster(
                    n_samples=_integer(_get(b, "n_samples", _CLUSTER), "n_samples"),
                    centroid=tuple(
                        _number(c, "centroid")
                        for c in _list(_get(b, "centroid", _CLUSTER), "centroid")
                    ),
                    spread=_number(_get(b, "spread", _CLUSTER), "spread"),
                )
                for b in _list(_get(data, "per_cluster"), "per_cluster")
            ),
            seed=_integer(data.get("seed", 0), "seed"),
        )


# Spec JSON readers: a wrong shape raises ValueError naming the key.

_CLUSTER = "spec 'per_cluster' entry"


def _get(obj, key: str, where: str = "spec"):
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, got {obj!r}")
    if key not in obj:
        raise ValueError(f"{where}: missing field {key!r}")
    return obj[key]


def _list(value, key: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"spec {key!r} must be a list, got {value!r}")
    return value


def _number(value, key: str) -> float:
    return json_number(value, f"spec {key!r}")


def _integer(value, key: str) -> int:
    return json_integer(value, f"spec {key!r}")


def _integers(values, key: str) -> list[int]:
    return [_integer(v, key) for v in _list(values, key)]


def load_spec(path) -> CurveSpec | BlobSpec:
    """Load a generator spec from JSON; ``kind`` picks the type."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    kind = _get(data, "kind")
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
                loss *= math.exp(spec.noise_sigma * rng.normal())
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
    return RunSeries.from_records(records)


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
    return (
        EmbeddingSet.from_array(np.vstack(rows)),
        np.asarray(labels, dtype=int),
    )
