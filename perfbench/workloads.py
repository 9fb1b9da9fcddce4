"""Workloads of the subscale benchmark: seeded fixtures, commands, output checks.

Every fixture is drawn from a numpy ``Generator`` seeded with the workload
seed and written in the documented file formats (runs CSV, EMB1 embeddings,
law and curve-spec JSON).  ``subscale.synth`` and ``subscale.rng`` are never
used here, so a change to them cannot alter another workload's inputs; the
only program-generated data is the timed ``synth`` step of ``fit-runlog``.

One iteration of a workload is a fixed sequence of CLI commands.  The same
iteration function runs them as child processes (timed loop), in-process
(traced run) or for the untimed output check, through a ``run`` callback:
``run(label, argv) -> Path`` runs ``subscale <argv> -o <out>/<label>`` and
returns the output directory.

Why each workload exists and which layer metric should move which end-to-end
metric is recorded in README.md beside this file.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Float outputs are compared to the values recorded in reference.json with
# |a - b| <= RTOL * max(|a|, |b|) + ATOL.  A future fit engine (fused
# evaluators, one QR per step, batched starts) may move fitted parameters by
# about 1e-9 relative, so fitted values get 1e-6; densities, allocation and
# values the benchmark recomputes itself get 1e-9.
FIT_RTOL = 1e-6
FIT_ATOL = 1e-9
EXACT_RTOL = 1e-9
EXACT_ATOL = 1e-12

# The reference suboptimal law (raw token and parameter counts).
REFERENCE_LAW = {
    "family": "suboptimal",
    "e_irreducible": 1.372,
    "lambda_n": 61.929,
    "alpha_n": 0.272,
    "lambda_d": 455.345,
    "alpha_d": 0.289,
    "k1": 0.0081,
    "k2": 0.00114,
}
# The paper's 11-size model ladder (20M .. 7.03B parameters).
LADDER_SIZES = tuple(
    int(m * 1_000_000) for m in (20, 47, 113, 241, 487, 736, 936, 1330, 2510, 4700, 7030)
)
RUNS_HEADER = "run_id,model_size,tokens,loss,step,batch_size,learning_rate,dataset_tag"
NOISE_SIGMA = 0.01
SPLIT_FRACTION = 0.25
ALLOC_BUDGET = 1e21
KEEP_FRACTION = 0.5
# Mean member distance from the blob centre, drawn per blob; centres are
# random unit vectors about 1.4 apart, so blobs overlap a little.
BLOB_SPREAD = (0.3, 0.6)


class CheckFailed(Exception):
    """An output of the command ``label`` differs from what is expected."""

    def __init__(self, label: str, message: str):
        super().__init__(f"{label}: {message}")
        self.label = label


# ---------------------------------------------------------------------------
# Law evaluation and small helpers, independent of the program under test
# ---------------------------------------------------------------------------


def law_loss(law: dict, n, d) -> np.ndarray:
    """Loss of a law given as its JSON mapping, at model sizes n, tokens d."""
    n = np.asarray(n, dtype=float)
    d = np.asarray(d, dtype=float)
    family = law["family"]
    if family == "power":
        return law["lambda"] * (6.0 * n * d) ** -law["alpha"]
    term_n = law["lambda_n"] * n ** -law["alpha_n"]
    term_d = law["lambda_d"] * d ** -law["alpha_d"]
    if family == "suboptimal":
        otr = d / n
        term_n = term_n * (1.0 + 1.0 / (1.0 + np.exp(-law["k2"] * otr)))
        term_d = term_d * (1.0 + 1.0 / (1.0 + np.exp(-law["k1"] * otr)))
    elif family != "chinchilla":
        raise ValueError(f"unexpected law family {family!r}")
    return law["e_irreducible"] + term_n + term_d


def read_runs(path: Path) -> dict[str, np.ndarray]:
    """Columns of a runs CSV: run_id, model_size, tokens and loss."""
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return {
        "run_id": np.array([r["run_id"] for r in rows]),
        "model_size": np.array([float(r["model_size"]) for r in rows]),
        "tokens": np.array([float(r["tokens"]) for r in rows]),
        "loss": np.array([float(r["loss"]) for r in rows]),
    }


def holdout_mask(runs: dict[str, np.ndarray], fraction: float) -> np.ndarray:
    """True for records after the leading ceil(fraction * len) of each run."""
    mask = np.ones(len(runs["loss"]), dtype=bool)
    for run_id in np.unique(runs["run_id"]):
        idx = np.flatnonzero(runs["run_id"] == run_id)
        idx = idx[np.argsort(runs["tokens"][idx], kind="stable")]
        mask[idx[: math.ceil(fraction * len(idx))]] = False
    return mask


def holdout_mape(law: dict, runs: dict[str, np.ndarray], fraction: float) -> float:
    hold = holdout_mask(runs, fraction)
    pred = law_loss(law, runs["model_size"][hold], runs["tokens"][hold])
    actual = runs["loss"][hold]
    return float(np.mean(np.abs(pred - actual) / actual))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def close(got: float, want: float, rtol: float, atol: float) -> bool:
    return abs(got - want) <= rtol * max(abs(got), abs(want)) + atol


def expect(condition: bool, label: str, message: str) -> None:
    if not condition:
        raise CheckFailed(label, message)


def expect_close(label: str, name: str, got: float, want: float) -> None:
    """Values the benchmark recomputes itself agree to EXACT_RTOL."""
    if not close(got, want, EXACT_RTOL, EXACT_ATOL):
        raise CheckFailed(label, f"{name}: got {got!r}, recomputed {want!r}")


def write_runs_csv(path: Path, sizes, checkpoints, losses, tag: str) -> None:
    lines = [RUNS_HEADER]
    for i, (size, tokens, loss) in enumerate(zip(sizes, checkpoints, losses)):
        for step, (t, value) in enumerate(zip(tokens, loss), start=1):
            lines.append(f"run{i:02d}-n{size},{size},{t},{float(value)!r},{step},,,{tag}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def otr_grid(sizes, n_points: int) -> list[list[int]]:
    """Token checkpoints at over-training ratios 2 .. 1700, per model size."""
    ratios = np.geomspace(2.0, 1700.0, n_points)
    return [[int(round(r * size)) for r in ratios] for size in sizes]


# ---------------------------------------------------------------------------
# Workload definition
# ---------------------------------------------------------------------------

Run = Callable[[str, list], Path]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; BENCHMARK.json and README.md say why it exists."""

    name: str
    # fixture sizes per scale: "full" is measured, "smoke" is the self-test
    sizes: dict
    # (seed, dataset index, directory, sizes) -> fixture paths and settings
    make_fixtures: Callable[[int, int, Path, dict], dict]
    iteration: Callable[[dict, Run], None]
    # per command label: checks that need no reference (invariants and
    # values the benchmark recomputes itself); raise CheckFailed
    checks: dict
    # {"<label>/<name>": value} compared with reference.json: strings and
    # digests exactly, floats to value_rtol
    observe: Callable[[dict, Path], dict]
    value_rtol: float
    # the dataset's quality_err value (lower is better) from observe()
    quality: Callable[[dict], float]
    # layers the traced run must see no calls of
    idle_layers: tuple


# --- fit-ladder ------------------------------------------------------------


def _ladder_fixtures(seed: int, dataset: int, root: Path, size: dict) -> dict:
    rng = np.random.default_rng([seed, 1, dataset])
    sizes = LADDER_SIZES[: size["n_sizes"]]
    checkpoints = otr_grid(sizes, size["n_checkpoints"])
    losses = [
        law_loss(REFERENCE_LAW, s, t) * np.exp(NOISE_SIGMA * rng.standard_normal(len(t)))
        for s, t in zip(sizes, checkpoints)
    ]
    runs_path = root / "ladder.csv"
    write_runs_csv(runs_path, sizes, checkpoints, losses, "ladder")
    law_path = root / "law.json"
    law_path.write_text(json.dumps(REFERENCE_LAW, indent=2) + "\n", encoding="utf-8")
    return {"runs": str(runs_path), "law": str(law_path)}


def _ladder_iteration(fx: dict, run: Run) -> None:
    families = ["--family", "power", "--family", "chinchilla", "--family", "suboptimal"]
    run("compare", ["compare", fx["runs"], *families, "--split-fraction", repr(SPLIT_FRACTION)])
    run("alloc", ["alloc", "--law", fx["law"], "--budget", repr(ALLOC_BUDGET), "--sweep"])


def _check_compare(fx: dict, out: Path) -> None:
    table = read_json(out / "compare" / "comparison.json")
    runs = read_runs(Path(fx["runs"]))
    for row in table["rows"]:
        name = row["family"]
        expect(row["error"] is None, "compare", f"{name} fit failed: {row['error']}")
        expect_close("compare", f"{name} holdout MAPE", row["mape_pred"],
                     holdout_mape(row["params"], runs, SPLIT_FRACTION))
    preds = [row["mape_pred"] for row in table["rows"]]
    expect(preds == sorted(preds), "compare", "rows are not ranked by holdout MAPE")


def _check_alloc(fx: dict, out: Path) -> None:
    law = read_json(Path(fx["law"]))
    with (out / "alloc" / "sweep.csv").open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    expect(len(rows) == 25, "alloc", "sweep.csv should have 25 points")
    for row in rows:
        otr = float(row["otr"])
        n = math.sqrt(ALLOC_BUDGET / (6.0 * otr))
        expect_close("alloc", f"sweep loss at OTR {otr:g}", float(row["loss"]),
                     float(law_loss(law, n, otr * n)))
    plan = read_json(out / "alloc" / "allocation.json")
    for factor in (0.99, 1.01):
        n = plan["n_star"] * factor
        nearby = float(law_loss(law, n, ALLOC_BUDGET / (6.0 * n)))
        expect(nearby >= plan["predicted_loss"] * (1 - EXACT_RTOL), "alloc",
               "n_star is not a local minimum of loss along the budget")


def _ladder_observe(fx: dict, out: Path) -> dict:
    table = read_json(out / "compare" / "comparison.json")
    values = {"compare/best_family": table["rows"][0]["family"],
              "compare/pred_mape": table["rows"][0]["mape_pred"],
              "compare/mape_fit": table["rows"][0]["mape_fit"]}
    for row in table["rows"]:
        for key, value in [("mape_fit", row["mape_fit"]), *row["params"].items()]:
            if key != "family":
                values[f"compare/{row['family']}.{key}"] = value
    plan = read_json(out / "alloc" / "allocation.json")
    for key in ("n_star", "d_star", "predicted_loss"):
        values[f"alloc/{key}"] = plan[key]
    return values


# --- fit-runlog ------------------------------------------------------------


def _runlog_fixtures(seed: int, dataset: int, root: Path, size: dict) -> dict:
    rng = np.random.default_rng([seed, 2, dataset])
    sizes = LADDER_SIZES[: size["n_sizes"]]
    spec = {
        "kind": "curves",
        "law": REFERENCE_LAW,
        "model_sizes": list(sizes),
        "token_checkpoints": otr_grid(sizes, size["n_checkpoints"]),
        "noise_sigma": NOISE_SIGMA,
        "seed": int(rng.integers(2**62)),
    }
    spec_path = root / "curves.json"
    spec_path.write_text(json.dumps(spec) + "\n", encoding="utf-8")
    return {"spec": str(spec_path), "smooth_window": size["smooth_window"]}


def _runlog_iteration(fx: dict, run: Run) -> None:
    synth = run("synth", ["synth", "--spec", fx["spec"]])
    window = str(fx["smooth_window"])
    ingest = run("ingest", ["ingest", str(synth / "runs.csv"), "--smooth-window", window])
    run("fit", ["fit", str(ingest / "runs.csv"), "--family", "suboptimal",
                "--split-fraction", repr(SPLIT_FRACTION)])


def _check_synth(fx: dict, out: Path) -> None:
    spec = read_json(Path(fx["spec"]))
    raw = read_runs(out / "synth" / "runs.csv")
    expect(len(raw["loss"]) == sum(len(c) for c in spec["token_checkpoints"]), "synth",
           "wrong number of records")
    z = np.log(raw["loss"] / law_loss(spec["law"], raw["model_size"], raw["tokens"]))
    z /= spec["noise_sigma"]
    expect(abs(float(z.mean())) < 0.2 and 0.8 < float(z.std()) < 1.2, "synth",
           "log noise is not standard normal")


def _smooth(losses: np.ndarray, window: int) -> np.ndarray:
    """Truncated Gaussian window average (sigma = window / 4), renormalized."""
    offsets = np.arange(-(window // 2), (window - 1) // 2 + 1)
    kernel = np.exp(-(offsets.astype(float) ** 2) / (2.0 * (window / 4.0) ** 2))
    out = np.empty_like(losses)
    for pos in range(len(losses)):
        j = pos + offsets
        valid = (j >= 0) & (j < len(losses))
        out[pos] = np.dot(kernel[valid], losses[j[valid]]) / kernel[valid].sum()
    return out


def _check_ingest(fx: dict, out: Path) -> None:
    raw = read_runs(out / "synth" / "runs.csv")
    smoothed = read_runs(out / "ingest" / "runs.csv")
    expect(np.array_equal(raw["tokens"], smoothed["tokens"]), "ingest", "records reordered")
    for run_id in np.unique(raw["run_id"]):
        idx = np.flatnonzero(raw["run_id"] == run_id)
        want = _smooth(raw["loss"][idx], fx["smooth_window"])
        expect(np.allclose(smoothed["loss"][idx], want, rtol=EXACT_RTOL, atol=0.0),
               "ingest", f"smoothed losses of {run_id} differ from the window average")


def _check_fit(fx: dict, out: Path) -> None:
    result = read_json(out / "fit" / "fit_result.json")
    expect(result["converged"], "fit", "suboptimal fit did not converge")
    smoothed = read_runs(out / "ingest" / "runs.csv")
    expect_close("fit", "holdout MAPE", result["mape_pred"],
                 holdout_mape(result["params"], smoothed, SPLIT_FRACTION))


def _runlog_observe(fx: dict, out: Path) -> dict:
    result = read_json(out / "fit" / "fit_result.json")
    values = {"synth/runs.csv": sha256(out / "synth" / "runs.csv"),
              "fit/pred_mape": result["mape_pred"], "fit/mape_fit": result["mape_fit"]}
    for key, value in result["params"].items():
        if key != "family":
            values[f"fit/{key}"] = value
    return values


# --- density-prune ---------------------------------------------------------


def _blob_fixtures(seed: int, dataset: int, root: Path, size: dict) -> dict:
    """Unit-normalized Gaussian blobs with unequal sizes and spreads."""
    rng = np.random.default_rng([seed, 3, dataset])
    n, dim, k = size["n"], size["dim"], size["k"]
    counts = 1 + rng.multinomial(n - k, rng.dirichlet(np.full(k, 3.0)))
    centers = rng.standard_normal((k, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    spreads = rng.uniform(*BLOB_SPREAD, k)
    x = np.vstack([
        c + s / math.sqrt(dim) * rng.standard_normal((m, dim))
        for c, s, m in zip(centers, spreads, counts)
    ])
    x = x[rng.permutation(n)]
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    path = root / "blobs.emb"
    with path.open("wb") as fh:
        fh.write(b"EMB1")
        fh.write(struct.pack("<QQ", dim, n))
        fh.write(x.astype("<f4").tobytes(order="C"))
    return {"emb": str(path), "k": k, "n": n, "drop_nats": size["drop_nats"]}


def _density_iteration(fx: dict, run: Run) -> None:
    common = [fx["emb"], "--k", str(fx["k"]), "--normalize"]
    report = run("density", ["density", *common])
    before = read_json(report / "density_report.json")["log_density"]
    run("select-keep", ["select", *common, "--keep-fraction", repr(KEEP_FRACTION)])
    target = before - fx["drop_nats"]
    run("select-target", ["select", *common, "--target-log-density", repr(target)])


def _check_density(fx: dict, out: Path) -> None:
    report = read_json(out / "density" / "density_report.json")
    dim = report["dim"]
    expect(report["n_total"] == fx["n"] and report["k"] == fx["k"], "density",
           "report has the wrong sample count or k")
    expect(sum(c["n_samples"] for c in report["per_cluster"]) == fx["n"], "density",
           "cluster sizes do not add up to the sample count")
    for c in report["per_cluster"]:
        want = (math.log(c["n_samples"]) + math.lgamma(dim / 2 + 1)
                - dim / 2 * math.log(math.pi) - dim * math.log(c["radius"]))
        expect_close("density", f"cluster {c['cluster_id']} log density",
                     c["log_density"], want)


def _check_selection(label: str, fx: dict, out: Path) -> dict:
    sel = read_json(out / label / "selection.json")
    lines = (out / label / "retained_ids.txt").read_text(encoding="utf-8").split("\n")
    ids = lines[:-1]
    expect(lines[-1] == "" and len(ids) == sel["n_after"], label,
           "retained_ids.txt does not hold n_after lines")
    expect(len(set(ids)) == len(ids), label, "duplicate retained ids")
    expect(all(i.isdigit() and int(i) < fx["n"] for i in ids), label, "unknown retained id")
    before = read_json(out / "density" / "density_report.json")["log_density"]
    expect(sel["n_before"] == fx["n"], label, "n_before is not the sample count")
    expect_close(label, "log density before", sel["log_density_before"], before)
    return sel


def _check_keep(fx: dict, out: Path) -> None:
    sel = _check_selection("select-keep", fx, out)
    expect(sel["n_after"] == math.ceil(KEEP_FRACTION * fx["n"]), "select-keep",
           "kept count is not ceil(keep_fraction * n)")


def _check_target(fx: dict, out: Path) -> None:
    sel = _check_selection("select-target", fx, out)
    # the reported "after" density is recomputed over the clusters that kept
    # members, so it need not reach the target the greedy loop stopped at
    expect(sel["n_after"] < sel["n_before"], "select-target",
           "a target below the current density removed nothing")


def _density_observe(fx: dict, out: Path) -> dict:
    report = read_json(out / "density" / "density_report.json")
    values = {"density/log_density": report["log_density"], "density/dim": report["dim"]}
    for label in ("select-keep", "select-target"):
        sel = read_json(out / label / "selection.json")
        values[f"{label}/retained_ids.txt"] = sha256(out / label / "retained_ids.txt")
        values[f"{label}/log_density_after"] = sel["log_density_after"]
        values[f"{label}/n_after"] = sel["n_after"]
    return values


def _density_quality(values: dict) -> float:
    """Normalized density after / before of the keep-0.5 selection."""
    drop = values["select-keep/log_density_after"] - values["density/log_density"]
    return math.exp(drop / values["density/dim"])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fit-ladder",
            sizes={
                "full": {"n_sizes": 11, "n_checkpoints": 30},
                "smoke": {"n_sizes": 4, "n_checkpoints": 12},
            },
            make_fixtures=_ladder_fixtures,
            iteration=_ladder_iteration,
            checks={"compare": _check_compare, "alloc": _check_alloc},
            observe=_ladder_observe,
            value_rtol=FIT_RTOL,
            quality=lambda v: v["compare/mape_fit"],
            idle_layers=("density", "synth", "rng"),
        ),
        Workload(
            name="fit-runlog",
            sizes={
                "full": {"n_sizes": 11, "n_checkpoints": 200, "smooth_window": 10},
                "smoke": {"n_sizes": 4, "n_checkpoints": 40, "smooth_window": 5},
            },
            make_fixtures=_runlog_fixtures,
            iteration=_runlog_iteration,
            checks={"synth": _check_synth, "ingest": _check_ingest, "fit": _check_fit},
            observe=_runlog_observe,
            value_rtol=FIT_RTOL,
            quality=lambda v: v["fit/mape_fit"],
            idle_layers=("density", "alloc"),
        ),
        Workload(
            name="density-prune",
            sizes={
                "full": {"n": 6000, "dim": 96, "k": 48, "drop_nats": 3.0},
                "smoke": {"n": 600, "dim": 16, "k": 8, "drop_nats": 1.0},
            },
            make_fixtures=_blob_fixtures,
            iteration=_density_iteration,
            checks={"density": _check_density, "select-keep": _check_keep,
                    "select-target": _check_target},
            observe=_density_observe,
            value_rtol=EXACT_RTOL,
            quality=_density_quality,
            idle_layers=("runs", "fit", "laws", "alloc", "synth", "svg"),
        ),
    )
}
