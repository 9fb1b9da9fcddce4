"""The one result-table writer of ``cli`` against the serializers it replaced.

``FitResult``, ``ComparisonRow``, ``ComparisonTable`` and ``AllocationPlan``
each used to carry their own ``to_dict`` (and the first and third a
``to_csv_text``), and the CLI joined residual, prediction, sweep and label
rows with bare commas through ``_csv_line``.  Frozen copies of that code are
kept below only as oracles: on real results, every file the new writer
gives must equal theirs byte for byte.  The one intended difference, a text
cell that needs CSV quoting, is pinned in ``test_cli.py``.
"""

import dataclasses
import json

import numpy as np
import pytest

from subscale import alloc, cli, fit, laws, runs, synth
from subscale.laws import params_to_dict

REF = laws.SubOptimalParams(1.372, 61.929, 0.272, 455.345, 0.289, 0.00810, 0.00114)

# ---------------------------------------------------------------------------
# Reference: the deleted serializers
# ---------------------------------------------------------------------------


def _ref_json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _ref_fit_result_dict(r) -> dict:
    return {
        "family": r.family,
        "params": params_to_dict(r.params),
        "mape_fit": r.mape_fit,
        "mape_pred": r.mape_pred,
        "converged": r.converged,
        "n_starts_tried": r.n_starts_tried,
        "best_objective": r.best_objective,
        "n_iterations": r.n_iterations,
        "residuals": list(r.residuals),
        "objective_trace": list(r.objective_trace),
    }


def _ref_fit_result_csv(r) -> str:
    record = params_to_dict(r.params)
    names = [k for k in record if k != "family"]
    header = ",".join(["family", "mape_fit", "mape_pred", "converged"] + names)
    cells = [
        r.family,
        repr(r.mape_fit),
        "" if r.mape_pred is None else repr(r.mape_pred),
        str(r.converged).lower(),
    ] + [repr(record[k]) for k in names]
    return header + "\n" + ",".join(cells) + "\n"


def _ref_comparison_row_dict(row) -> dict:
    return {
        "family": row.family,
        "mape_fit": row.mape_fit,
        "mape_pred": row.mape_pred,
        "converged": row.converged,
        "n_params": row.n_params,
        "params": None if row.params is None else params_to_dict(row.params),
        "error": row.error,
    }


def _ref_comparison_dict(table) -> dict:
    return {
        "split_fraction": table.split_fraction,
        "rows": [_ref_comparison_row_dict(r) for r in table.rows],
    }


def _ref_comparison_csv(table) -> str:
    param_names: list[str] = []
    for row in table.rows:
        if row.params is None:
            continue
        for key in params_to_dict(row.params):
            if key != "family" and key not in param_names:
                param_names.append(key)
    lines = [",".join(["family", "mape_fit", "mape_pred", "converged"] + param_names)]
    for row in table.rows:
        record = params_to_dict(row.params) if row.params is not None else {}
        cells = [
            row.family,
            "" if row.mape_fit is None else repr(row.mape_fit),
            "" if row.mape_pred is None else repr(row.mape_pred),
            "" if row.converged is None else str(row.converged).lower(),
        ]
        cells += [repr(record[name]) if name in record else "" for name in param_names]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _ref_allocation_dict(plan) -> dict:
    return {
        "budget": plan.budget,
        "n_star": plan.n_star,
        "d_star": plan.d_star,
        "otr_star": plan.otr_star,
        "predicted_loss": plan.predicted_loss,
        "law": params_to_dict(plan.law),
    }


def _ref_csv_line(cells) -> str:
    out = []
    for c in cells:
        if isinstance(c, float):
            out.append(repr(c))
        else:
            out.append(str(c))
    return ",".join(out)


def _ref_table(header, rows) -> str:
    return "\n".join([_ref_csv_line(header)] + [_ref_csv_line(r) for r in rows]) + "\n"


# ---------------------------------------------------------------------------
# Real results
# ---------------------------------------------------------------------------


def _series(noise=0.01, seed=3):
    """A 5-size ladder with batch size and learning rate, for every family."""
    sizes = synth.LADDER_MODEL_SIZES[:5]
    spec = synth.CurveSpec(
        law=REF,
        model_sizes=sizes,
        token_checkpoints=synth.otr_checkpoints(sizes, np.geomspace(2.0, 1700.0, 12)),
        noise_sigma=noise,
        seed=seed,
    )
    records = [
        dataclasses.replace(
            rec, batch_size=2 ** (5 + i % 7), learning_rate=3e-4 * 1.3 ** (i % 9)
        )
        for i, rec in enumerate(synth.gen_curves(spec).records)
    ]
    return runs.RunSeries.from_records(records)


@pytest.fixture(scope="module")
def runs_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("writer") / "runs.csv"
    runs.write_csv(_series(), path)
    return path


def _read(path) -> str:
    return path.read_bytes().decode("utf-8")  # no newline translation


@pytest.mark.parametrize("split", [0.25, 1.0])
@pytest.mark.parametrize("family", sorted(fit.FAMILIES))
def test_fit_outputs_match_reference(tmp_path, runs_csv, family, split):
    out = tmp_path / "out"
    argv = ["fit", str(runs_csv), "--family", family, "--split-fraction", repr(split)]
    assert cli.main(argv + ["-o", str(out)]) in (0, 2)

    series = runs.ingest(runs_csv)
    if split == 1.0:
        fit_split, holdout = series, None
    else:
        fit_split, holdout = runs.split_fit_holdout(series, split)
    result = fit.fit_law(fit_split, family)
    if holdout is not None:
        _, mape_pred = fit.predict(result.params, holdout, family=family)
        result = dataclasses.replace(result, mape_pred=mape_pred)
    preds, _ = fit.predict(result.params, fit_split, family=family)
    residuals = _ref_table(
        ["run_id", "model_size", "tokens", "loss", "predicted", "residual"],
        [
            [rec.run_id, rec.model_size, rec.tokens, rec.loss, float(pred), res]
            for rec, pred, res in zip(fit_split.records, preds, result.residuals)
        ],
    )
    assert _read(out / "fit_result.json") == _ref_json_text(_ref_fit_result_dict(result))
    assert _read(out / "fit_result.csv") == _ref_fit_result_csv(result)
    assert _read(out / "residuals.csv") == residuals


def test_comparison_with_error_row_matches_reference(tmp_path):
    # no batch sizes, so batch_power fails and is kept as an error row
    series = runs.RunSeries.from_records(
        dataclasses.replace(rec, batch_size=None) for rec in _series().records
    )
    table = fit.compare_laws(series, ["power", "batch_power", "suboptimal", "chinchilla"])
    assert table.rows[-1].error is not None and table.rows[-1].family == "batch_power"
    cli._write_fit_table(tmp_path / "comparison.csv", table.rows)
    cli._write_json(tmp_path / "comparison.json", table)
    assert _read(tmp_path / "comparison.csv") == _ref_comparison_csv(table)
    assert _read(tmp_path / "comparison.json") == _ref_json_text(_ref_comparison_dict(table))


def test_compare_command_matches_reference(tmp_path, runs_csv):
    out = tmp_path / "out"
    assert cli.main(["compare", str(runs_csv), "-o", str(out)]) == 0
    table = fit.compare_laws(runs.ingest(runs_csv), ["power", "chinchilla", "suboptimal"])
    assert _read(out / "comparison.csv") == _ref_comparison_csv(table)
    assert _read(out / "comparison.json") == _ref_json_text(_ref_comparison_dict(table))


@pytest.mark.parametrize(
    "law, budget",
    [(REF, 1e21), (laws.ChinchillaParams(1.7, 400.0, 0.34, 410.0, 0.28), 1e20)],
)
def test_alloc_and_sweep_match_reference(tmp_path, capsys, law, budget):
    law_path = tmp_path / "law.json"
    law_path.write_text(json.dumps(params_to_dict(law)))
    out = tmp_path / "out"
    argv = ["alloc", "--law", str(law_path), "--budget", repr(budget), "--sweep"]
    assert cli.main(argv + ["-o", str(out)]) == 0

    plan = alloc.optimal_allocation(law, budget)
    want = _ref_allocation_dict(plan)
    assert _read(out / "allocation.json") == _ref_json_text(want)
    assert capsys.readouterr().out == json.dumps(want, indent=2, sort_keys=True) + "\n"
    points = alloc.otr_sweep(law, budget, np.geomspace(1.0, 2000.0, 25))
    assert _read(out / "sweep.csv") == _ref_table(
        ["otr", "n", "d", "loss"], [[p.otr, p.n, p.d, p.predicted_loss] for p in points]
    )


def test_predict_matches_reference(tmp_path, runs_csv):
    law_path = tmp_path / "law.json"
    law_path.write_text(json.dumps(params_to_dict(REF)))
    out = tmp_path / "out"
    assert cli.main(["predict", str(runs_csv), "--params", str(law_path), "-o", str(out)]) == 0
    series = runs.ingest(runs_csv)
    preds, _ = fit.predict(REF, series)
    assert _read(out / "predictions.csv") == _ref_table(
        ["run_id", "model_size", "tokens", "loss", "predicted"],
        [
            [rec.run_id, rec.model_size, rec.tokens, rec.loss, float(pred)]
            for rec, pred in zip(series.records, preds)
        ],
    )


def test_synth_labels_match_reference(tmp_path):
    spec = synth.BlobSpec(
        k=3,
        dim=2,
        per_cluster=(
            synth.BlobCluster(7, (0.0, 0.0), 0.3),
            synth.BlobCluster(5, (4.0, 0.0), 0.5),
            synth.BlobCluster(6, (0.0, 4.0), 0.2),
        ),
        seed=11,
    )
    spec_path = tmp_path / "blobs.json"
    spec_path.write_text(json.dumps(spec.to_dict()))
    out = tmp_path / "out"
    assert cli.main(["synth", "--spec", str(spec_path), "-o", str(out)]) == 0
    embeddings, labels = synth.gen_blobs(spec)
    lines = ["id,label"] + [f"{i},{lab}" for i, lab in zip(embeddings.ids, labels)]
    assert _read(out / "labels.csv") == "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "value, cell",
    [(True, "true"), (False, "false"), (None, ""), (np.float64(0.1), "0.1"),
     (1e-300, "1e-300"), (3, "3"), ("r,1", '"r,1"'), ('a"b', '"a""b"')],
)
def test_cells(tmp_path, value, cell):
    cli._write_table(tmp_path / "t.csv", ["a", "b"], [["x", value]])
    assert _read(tmp_path / "t.csv") == f"a,b\nx,{cell}\n"


def test_numpy_float_cell_ignores_print_options(tmp_path):
    # legacy printing gives str(np.float64(1/3)) == "0.333333333333"
    with np.printoptions(legacy="1.13"):
        cli._write_table(tmp_path / "t.csv", ["a"], [[np.float64(1 / 3)]])
    assert _read(tmp_path / "t.csv") == "a\n0.3333333333333333\n"
