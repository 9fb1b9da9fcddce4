import argparse
import csv
import dataclasses
import gc
import json
import math
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from subscale import alloc, cli, density, fit, laws, runs, synth
from subscale.cli import main

REF = laws.SubOptimalParams(1.372, 61.929, 0.272, 455.345, 0.289, 0.00810, 0.00114)


@pytest.fixture()
def power_fixture(tmp_path):
    spec = synth.CurveSpec(
        law=laws.PowerLawParams(lam=3.0, alpha=0.3),
        model_sizes=(10**7,),
        token_checkpoints=(tuple(int(2e8 * 1.5**i) for i in range(16)),),
    )
    path = tmp_path / "power_runs.csv"
    runs.write_csv(synth.gen_curves(spec), path)
    return path


@pytest.fixture()
def suboptimal_fixture(tmp_path):
    sizes = synth.LADDER_MODEL_SIZES[:5]
    otrs = np.geomspace(3, 1500, 16)
    spec = synth.CurveSpec(
        law=REF,
        model_sizes=sizes,
        token_checkpoints=synth.otr_checkpoints(sizes, otrs),
    )
    path = tmp_path / "sub_runs.csv"
    runs.write_csv(synth.gen_curves(spec), path)
    return path


@pytest.fixture()
def blob_fixture(tmp_path):
    spec = synth.BlobSpec(
        k=2,
        dim=4,
        per_cluster=(
            synth.BlobCluster(50, (0.0, 0.0, 0.0, 0.0), 0.4),
            synth.BlobCluster(20, (9.0, 9.0, 9.0, 9.0), 1.2),
        ),
        seed=3,
    )
    emb, _ = synth.gen_blobs(spec)
    path = tmp_path / "vectors.emb"
    density.save_embeddings(path, emb)
    return path


def _law_json(tmp_path, params, name="law.json"):
    path = tmp_path / name
    path.write_text(json.dumps(laws.params_to_dict(params)))
    return path


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


def test_ingest_ok(tmp_path, power_fixture):
    out = tmp_path / "out"
    assert main(["ingest", str(power_fixture), "-o", str(out)]) == 0
    again = runs.ingest(out / "runs.csv")
    assert len(again) == 16
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "ingest"
    assert str(power_fixture.resolve()) in manifest["inputs"]


def test_ingest_malformed_names_row(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "run_id,model_size,tokens,loss,step,batch_size,learning_rate,dataset_tag\n"
        "a,10,100,3.0,,,,\n"
        "a,10,200,-2.0,,,,\n"
    )
    code = main(["ingest", str(bad), "-o", str(tmp_path / "out")])
    assert code == 1
    assert "row 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, data",
    [("runs.csv", b"run_id,model_size,tokens,loss\na,10,100,3.0\n\xff,10,200,2.9\n"),
     ("runs.jsonl", b'{"run_id": "a", "model_size": 10, "tokens": 100, "loss": 3.0}\n\n\xff\n'),
     ("vectors.csv", b"id,v0\na,1.0\n\xff,2.0\n")],
    ids=["ingest-csv", "ingest-jsonl", "density-csv"],
)
def test_input_that_is_not_utf8_is_exit_one_naming_file_and_line(tmp_path, capsys, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    command = "density" if name == "vectors.csv" else "ingest"
    argv = [command, str(path), "-o", str(tmp_path / "out")]
    assert main(argv + (["--k", "1"] if command == "density" else [])) == 1
    err = capsys.readouterr().err
    assert str(path) in err and "line 3" in err and "not UTF-8 text" in err
    assert "can't decode byte 0xff in position" in err and "Traceback" not in err


def test_missing_input_is_exit_one(tmp_path):
    assert main(["ingest", str(tmp_path / "nope.csv"), "-o", str(tmp_path / "o")]) == 1


# ---------------------------------------------------------------------------
# fit / predict / compare
# ---------------------------------------------------------------------------


def test_fit_power_recovers_generator(tmp_path, power_fixture):
    out = tmp_path / "fit"
    code = main(
        ["fit", str(power_fixture), "--family", "power", "--split-fraction", "0.25",
         "-o", str(out)]
    )
    assert code == 0
    result = json.loads((out / "fit_result.json").read_text())
    assert result["converged"] is True
    assert result["params"]["lambda"] == pytest.approx(3.0, rel=1e-6)
    assert result["params"]["alpha"] == pytest.approx(0.3, rel=1e-6)
    assert result["mape_pred"] < 1e-8
    assert (out / "residuals.csv").read_text().splitlines()[0] == (
        "run_id,model_size,tokens,loss,predicted,residual"
    )


def test_fit_svg_is_valid_and_selfcontained(tmp_path, power_fixture):
    out = tmp_path / "fit"
    main(["fit", str(power_fixture), "--family", "power", "-o", str(out)])
    svg_text = (out / "loss_tokens.svg").read_text()
    root = ET.fromstring(svg_text)
    assert root.tag.endswith("svg")
    assert "href" not in svg_text and "url(" not in svg_text


def test_fit_multi_family_comparison_sorted(tmp_path, suboptimal_fixture):
    out = tmp_path / "cmp"
    code = main(
        ["fit", str(suboptimal_fixture), "--family", "suboptimal",
         "--family", "chinchilla", "-o", str(out)]
    )
    assert code == 0
    lines = (out / "comparison.csv").read_text().splitlines()
    assert lines[0].startswith("family,mape_fit,mape_pred,converged")
    assert lines[1].split(",")[0] == "suboptimal"
    table = json.loads((out / "comparison.json").read_text())
    preds = [r["mape_pred"] for r in table["rows"] if r["error"] is None]
    assert preds == sorted(preds)


@pytest.mark.parametrize("fraction", ["1.5", "0.0", "-0.25", "nan"])
def test_fit_split_fraction_out_of_range_is_exit_one(tmp_path, power_fixture, capsys, fraction):
    out = tmp_path / "fit"
    code = main(
        ["fit", str(power_fixture), "--family", "power", "--split-fraction", fraction,
         "-o", str(out)]
    )
    assert code == 1
    assert capsys.readouterr().err == (
        f"subscale fit: --split-fraction must be in (0, 1], got {float(fraction)!r}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("fraction", ["1.0", "0", "nan"])
def test_compare_split_fraction_outside_open_interval_is_exit_one(
    tmp_path, suboptimal_fixture, capsys, fraction
):
    # a ranking scores each family on a holdout, so 1 (no holdout) is refused too
    out = tmp_path / "cmp"
    argv = ["compare", str(suboptimal_fixture), "--split-fraction", fraction, "-o", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "subscale compare: --split-fraction must be in (0, 1) to rank families, as a ranking "
        f"needs a holdout, got {float(fraction)!r}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("fraction", ["5e-324", "1e-300"])
def test_fit_tiny_split_fraction_names_the_run(tmp_path, power_fixture, capsys, fraction):
    # 1/fraction overflowed, or named a 300-digit count; no run holds 2**53 records
    out = tmp_path / "fit"
    argv = ["fit", str(power_fixture), "--family", "power", "--split-fraction", fraction]
    assert main(argv + ["-o", str(out)]) == 1
    run_id = runs.ingest(power_fixture).records[0].run_id
    assert capsys.readouterr().err == (
        f"subscale fit: run {run_id!r} has 16 records; splitting needs at least {2**53}\n"
    )
    assert not out.exists()


def test_fit_split_fraction_one_fits_without_holdout(tmp_path, power_fixture):
    out = tmp_path / "fit"
    code = main(
        ["fit", str(power_fixture), "--family", "power", "--split-fraction", "1.0",
         "-o", str(out)]
    )
    assert code == 0
    result = json.loads((out / "fit_result.json").read_text())
    assert result["mape_pred"] is None
    assert len(result["residuals"]) == 16


def test_predict_roundtrip(tmp_path, power_fixture):
    law_path = _law_json(tmp_path, laws.PowerLawParams(lam=3.0, alpha=0.3))
    out = tmp_path / "pred"
    assert main(
        ["predict", str(power_fixture), "--params", str(law_path), "-o", str(out)]
    ) == 0
    data = json.loads((out / "prediction.json").read_text())
    assert data["mape_pred"] < 1e-12


def test_compare_defaults(tmp_path, suboptimal_fixture):
    out = tmp_path / "cmp"
    assert main(["compare", str(suboptimal_fixture), "-o", str(out)]) == 0
    lines = (out / "comparison.csv").read_text().splitlines()
    assert len(lines) == 4  # header + power + chinchilla + suboptimal


def test_compare_is_another_name_for_fit(tmp_path, suboptimal_fixture):
    sub = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert sub.choices["compare"] is sub.choices["fit"]
    assert all(
        a.help != argparse.SUPPRESS for p in sub.choices.values() for a in p._actions
    )
    # without --family, both rank the default families and write the same bytes
    outs = [tmp_path / "fit", tmp_path / "compare"]
    for out in outs:
        assert main([out.name, str(suboptimal_fixture), "-o", str(out)]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == ["comparison.csv", "comparison.json", "loss_tokens.svg", "manifest.json"]
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_compare_where_every_family_fails_keeps_its_tables(tmp_path, capsys):
    # split 0.25 of two 4-record runs leaves 2 fit records, too few for any family
    records = [
        runs.TrainingRun(f"run{i}", 10**7 * (i + 1), 10**8 * (j + 1), 3.0 - 0.1 * j)
        for i in range(2) for j in range(4)
    ]
    path = tmp_path / "runs.csv"
    runs.write_csv(runs.RunSeries(records), path)
    out = tmp_path / "cmp"
    assert main(["compare", str(path), "--split-fraction", "0.25", "-o", str(out)]) == 2
    assert capsys.readouterr().err == "all families failed\n"
    assert sorted(p.name for p in out.iterdir()) == [
        "comparison.csv", "comparison.json", "manifest.json"
    ]
    rows = json.loads((out / "comparison.json").read_text())["rows"]
    assert [r["family"] for r in rows] == list(cli._DEFAULT_FAMILIES)
    assert all(r["error"] and r["mape_pred"] is None for r in rows)


# ---------------------------------------------------------------------------
# alloc / sweep
# ---------------------------------------------------------------------------


def test_alloc_symmetric_chinchilla(tmp_path, capsys):
    law_path = _law_json(tmp_path, laws.ChinchillaParams(1.0, 120.0, 0.3, 120.0, 0.3))
    out = tmp_path / "alloc"
    code = main(["alloc", "--law", str(law_path), "--budget", "1e20", "-o", str(out)])
    assert code == 0
    plan = json.loads((out / "allocation.json").read_text())
    assert plan["otr_star"] == pytest.approx(1.0, abs=1e-4)
    printed = json.loads(capsys.readouterr().out)
    assert printed["otr_star"] == plan["otr_star"]


def test_alloc_zero_budget_is_exit_one(tmp_path):
    law_path = _law_json(tmp_path, REF)
    assert main(["alloc", "--law", str(law_path), "--budget", "0", "-o", str(tmp_path / "x")]) == 1


def test_alloc_no_interior_minimum_is_exit_two(tmp_path):
    law_path = _law_json(tmp_path, REF)
    code = main(
        ["alloc", "--law", str(law_path), "--budget", "1e20",
         "--n-min", "1e6", "--n-max", "1e8", "-o", str(tmp_path / "x")]
    )
    assert code == 2


def test_alloc_sweep_outputs(tmp_path):
    law_path = _law_json(tmp_path, REF)
    out = tmp_path / "alloc"
    code = main(
        ["alloc", "--law", str(law_path), "--budget", "1e20", "--sweep", "-o", str(out)]
    )
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "otr,n,d,loss"
    assert len(lines) == 26
    for line in lines[1:]:
        otr, n, d, _ = (float(v) for v in line.split(","))
        assert 6.0 * n * d == pytest.approx(1e20, rel=1e-9)
        assert d / n == pytest.approx(otr, rel=1e-9)
    ET.fromstring((out / "alloc_sweep.svg").read_text())


def test_alloc_sweep_plot_keeps_the_commands_bracket(tmp_path):
    law_path = _law_json(tmp_path, REF)
    budget = ["--law", str(law_path), "--budget", "1e21"]
    narrow = tmp_path / "narrow"
    argv = ["alloc", *budget, "--n-min", "1e9", "--n-max", "5e9", "--sweep", "-o", str(narrow)]
    assert main(argv) == 0
    # in [1e9, 5e9] the loss at 1e20 and 1e22 has no interior minimum, so
    # only the command's own allocation is a locus point: too few to draw
    for b in (1e20, 1e22):
        with pytest.raises(alloc.NoInteriorMinimum):
            alloc.optimal_allocation(REF, b, (1e9, 5e9))
    svg = (narrow / "alloc_sweep.svg").read_text()
    assert "budget 1.00e+20" in svg and "optimal locus" not in svg
    # under the default bracket `alloc --sweep` draws what `sweep` draws,
    # which computes every allocation itself
    assert main(["alloc", *budget, "--sweep", "-o", str(tmp_path / "a")]) == 0
    assert main(["sweep", *budget, "-o", str(tmp_path / "s")]) == 0
    svg = (tmp_path / "a" / "alloc_sweep.svg").read_bytes()
    assert b"optimal locus" in svg
    assert svg == (tmp_path / "s" / "alloc_sweep.svg").read_bytes()


def test_sweep_command(tmp_path):
    law_path = _law_json(tmp_path, REF)
    out = tmp_path / "sweep"
    assert main(
        ["sweep", "--law", str(law_path), "--budget", "1e19",
         "--otr-min", "2", "--otr-max", "500", "--otr-points", "9", "-o", str(out)]
    ) == 0
    assert len((out / "sweep.csv").read_text().splitlines()) == 10


# ---------------------------------------------------------------------------
# density / select
# ---------------------------------------------------------------------------


def test_density_two_blobs(tmp_path, blob_fixture):
    out = tmp_path / "den"
    code = main(["density", str(blob_fixture), "--k", "2", "--seed", "0", "-o", str(out)])
    assert code == 0
    report = json.loads((out / "density_report.json").read_text())
    assert report["k"] == 2
    assert report["n_total"] == 70
    # the tight 50-sample blob is denser than the loose 20-sample blob
    by_size = sorted(report["per_cluster"], key=lambda c: c["n_samples"])
    assert by_size[1]["log_density"] > by_size[0]["log_density"]


def test_density_single_cluster_degenerate_exit_two(tmp_path, blob_fixture):
    assert main(
        ["density", str(blob_fixture), "--k", "1", "-o", str(tmp_path / "x")]
    ) == 2


def test_density_bad_format_exit_one(tmp_path):
    bad = tmp_path / "bad.emb"
    bad.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNK")
    assert main(["density", str(bad), "--k", "1", "-o", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize(
    "text, options, fault",
    [
        ("id,v0,v1\na,1.0,2.0\nb,0.0,0.0\nc,3.0,1.0\n", ["--normalize"],
         "cannot unit-normalize zero vectors"),
        ("id,v0,v1\n", [], "{path}: no rows"),
    ],
    ids=["zero-row-normalized", "header-only"],
)
def test_density_embeddings_it_cannot_use_are_exit_one(tmp_path, capsys, text, options, fault):
    path = tmp_path / "vectors.csv"
    path.write_text(text)
    out = tmp_path / "out"
    assert main(["density", str(path), "--k", "1", *options, "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"subscale density: {fault.format(path=path)}\n"
    assert not out.exists()


@pytest.mark.parametrize("max_iters", ["0", "-3"])
@pytest.mark.parametrize(
    "command", [["density"], ["select", "--keep-fraction", "0.5"]], ids=["density", "select"]
)
def test_kmeans_max_iters_below_one_is_exit_one(
    tmp_path, blob_fixture, capsys, command, max_iters
):
    code = main(
        command + [str(blob_fixture), "--k", "2", "--max-iters", max_iters,
                   "-o", str(tmp_path / "x")]
    )
    assert code == 1
    assert f"max_iters must be >= 1, got {max_iters}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", [["density"], ["select", "--keep-fraction", "0.5"]], ids=["density", "select"]
)
def test_kmeans_unfillable_k_is_exit_one_without_warnings(tmp_path, command):
    # 10 distinct rows, each 5 times: k=20 still fills, k=21 cannot
    x = np.repeat(np.random.default_rng(0).standard_normal((10, 2)), 5, axis=0)
    path = tmp_path / "dup.csv"
    density.save_embeddings(path, density.EmbeddingSet(x))
    argv = [sys.executable, "-m", "subscale.cli", *command, str(path), "-o"]
    ok = subprocess.run(argv + [str(tmp_path / "ok"), "--k", "20"], capture_output=True, text=True)
    bad = subprocess.run(argv + [str(tmp_path / "bad"), "--k", "21"], capture_output=True, text=True)
    assert (ok.returncode, ok.stderr) == (0, "")
    assert bad.returncode == 1
    assert bad.stderr == (
        f"subscale {command[0]}: k=21 clusters cannot all be filled: k-means left 1 empty, "
        "and the data has 10 distinct rows\n"
    )


def test_select_noop_keeps_everything(tmp_path, blob_fixture):
    out = tmp_path / "sel"
    code = main(
        ["select", str(blob_fixture), "--k", "2", "--keep-fraction", "1.0", "-o", str(out)]
    )
    assert code == 0
    ids = (out / "retained_ids.txt").read_text().split()
    assert len(ids) == 70


def test_select_unreachable_target_is_exit_two(tmp_path, blob_fixture, capsys):
    out = tmp_path / "sel"
    argv = ["select", str(blob_fixture), "--k", "2", "--target-log-density=-1e9"]
    assert main(argv + ["-o", str(out)]) == 2
    assert "cannot reach -1e+09" in capsys.readouterr().err
    assert not (out / "retained_ids.txt").exists()


@pytest.mark.parametrize(
    "target, message",
    [
        (["--keep-fraction", "0.0"], "keep_fraction 0.0 not in (0, 1]"),
        (["--keep-fraction", "1.5"], "keep_fraction 1.5 not in (0, 1]"),
        (["--target-log-density", "nan"], "target_log_density is NaN"),
    ],
    ids=["keep-zero", "keep-above-one", "target-nan"],
)
def test_select_bad_target_is_exit_one(tmp_path, blob_fixture, capsys, target, message):
    out = tmp_path / "sel"
    assert main(["select", str(blob_fixture), "--k", "2", *target, "-o", str(out)]) == 1
    assert f"subscale select: {message}\n" in capsys.readouterr().err
    assert not (out / "retained_ids.txt").exists()


def test_select_lowers_density(tmp_path, blob_fixture):
    out = tmp_path / "sel"
    code = main(
        ["select", str(blob_fixture), "--k", "2", "--keep-fraction", "0.7", "-o", str(out)]
    )
    assert code == 0
    sel = json.loads((out / "selection.json").read_text())
    assert sel["n_after"] == math.ceil(0.7 * 70)
    assert sel["log_density_after"] <= sel["log_density_before"]


def test_select_with_duplicate_ids_reports_the_kept_rows(tmp_path):
    # 40 rows share 10 ids: the selection keeps rows, so an id can be kept
    # for one of its rows and dropped for another.  The same vectors with
    # unique ids name the rows that are kept.
    rng = np.random.default_rng(8)
    x = np.vstack([rng.normal(size=(25, 3)) * 0.3, rng.normal(size=(15, 3)) + 4.0])
    shared = [f"d{i % 10}" for i in range(40)]
    results = {}
    for name, ids in (("unique", [str(i) for i in range(40)]), ("shared", shared)):
        path = tmp_path / f"{name}.csv"
        density.save_embeddings(path, density.EmbeddingSet(x, ids))
        out = tmp_path / name
        argv = ["select", str(path), "--k", "2", "--keep-fraction", "0.5", "-o", str(out)]
        assert main(argv) == 0
        lines = (out / "retained_ids.txt").read_text(encoding="utf-8").split("\n")
        assert lines[-1] == ""
        results[name] = (lines[:-1], json.loads((out / "selection.json").read_text()))
    rows = [int(i) for i in results["unique"][0]]
    kept_ids, sel = results["shared"]
    assert len(kept_ids) == sel["n_after"] == len(rows) == 20
    assert kept_ids == [shared[r] for r in rows]

    # the dataset density of the kept rows, their clusters renumbered, over
    # the fixed centroids
    clustering = density.kmeans(density.EmbeddingSet(x), 2, seed=0)
    labels = clustering.assignment[rows].tolist()
    live = sorted(set(labels))
    after = density.dataset_density(
        density.EmbeddingSet(x[rows]),
        density.Clustering(
            [live.index(c) for c in labels], clustering.centroids[live]
        ),
    )
    assert sel["log_density_after"] == after.log_density
    assert sel["k_after"] == after.k


@pytest.mark.parametrize(
    "control", ["\r", "\n", "\t", "\x00", "\x1f", "\x7f"],
    ids=["CR", "LF", "TAB", "NUL", "US", "DEL"],
)
@pytest.mark.parametrize(
    "command", [["density"], ["select", "--keep-fraction", "0.95"]], ids=["density", "select"]
)
def test_control_character_in_embedding_id_is_exit_one(tmp_path, capsys, command, control):
    # a line feed in an id would split its line of retained_ids.txt
    x = np.random.default_rng(2).normal(size=(40, 3))
    ids = [f"r{i}" for i in range(40)]
    ids[1] = f"a{control}b"
    path = tmp_path / "vectors.csv"
    # written as save_embeddings writes, which refuses such an id
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "v0", "v1", "v2"])
        writer.writerows([i, *map(repr, row)] for i, row in zip(ids, x.tolist()))
    out = tmp_path / "out"
    assert main(command + [str(path), "--k", "2", "-o", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"subscale {command[0]}: {path}: line 3: id {ids[1]!r} holds the control "
        f"character {control!r}\n"
    )
    assert not out.exists() or not any(out.iterdir())


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def test_synth_curves_and_blobs(tmp_path):
    curve_spec = synth.CurveSpec(
        law=laws.PowerLawParams(lam=2.0, alpha=0.2),
        model_sizes=(10**7,),
        token_checkpoints=((10**8, 2 * 10**8, 4 * 10**8, 8 * 10**8),),
        noise_sigma=0.01,
        seed=5,
    )
    spec_path = tmp_path / "curves.json"
    spec_path.write_text(json.dumps(curve_spec.to_dict()))
    out = tmp_path / "fix"
    assert main(["synth", "--spec", str(spec_path), "-o", str(out)]) == 0
    series = runs.ingest(out / "runs.csv")
    assert len(series) == 4
    # --seed overrides the embedded seed
    out2 = tmp_path / "fix2"
    assert main(["synth", "--spec", str(spec_path), "--seed", "6", "-o", str(out2)]) == 0
    assert (out / "runs.csv").read_text() != (out2 / "runs.csv").read_text()

    blob_spec = synth.BlobSpec(
        k=1, dim=2, per_cluster=(synth.BlobCluster(8, (0.0, 0.0), 1.0),), seed=2
    )
    bpath = tmp_path / "blobs.json"
    bpath.write_text(json.dumps(blob_spec.to_dict()))
    bout = tmp_path / "emb"
    assert main(["synth", "--spec", str(bpath), "-o", str(bout)]) == 0
    emb = density.load_embeddings(bout / "embeddings.emb")
    assert emb.n_samples == 8 and emb.dim == 2


@pytest.mark.parametrize("seed", [str(2**64), "-1", str(-(2**64))])
@pytest.mark.parametrize("command", ["density", "select", "synth"])
def test_seed_outside_uint64_names_the_option(tmp_path, blob_fixture, capsys, command, seed):
    # SplitMix64 would reduce such a seed modulo 2^64 without a word
    spec_path = tmp_path / "curves.json"
    spec_path.write_text(json.dumps(_CURVES))
    argv = {
        "density": ["density", str(blob_fixture), "--k", "2"],
        "select": ["select", str(blob_fixture), "--k", "2", "--keep-fraction", "0.5"],
        "synth": ["synth", "--spec", str(spec_path)],
    }[command]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + [f"--seed={seed}", "-o", str(out)])
    assert exc.value.code == 1
    assert f"argument --seed: must be in [0, 2^64), got {seed}\n" in capsys.readouterr().err
    assert not out.exists()
    assert main(argv + [f"--seed={2**64 - 1}", "-o", str(out)]) == 0


@pytest.mark.parametrize("seed", [2**64, -1, 1e20])
def test_spec_seed_outside_uint64_names_the_key(tmp_path, capsys, seed):
    spec_path = tmp_path / "curves.json"
    spec_path.write_text(json.dumps(dict(_CURVES, seed=seed)))
    out = tmp_path / "out"
    assert main(["synth", "--spec", str(spec_path), "-o", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"subscale synth: spec 'seed' must be in [0, 2^64), got {int(seed)}\n"
    )
    assert not out.exists()


# ---------------------------------------------------------------------------
# manifests, determinism, threads
# ---------------------------------------------------------------------------


def _file_bytes(path):
    return path.read_bytes()


def test_fit_manifest_replay_byte_identical(tmp_path, suboptimal_fixture):
    out1 = tmp_path / "a"
    assert main(
        ["fit", str(suboptimal_fixture), "--family", "suboptimal",
         "--family", "chinchilla", "-o", str(out1)]
    ) == 0
    out2 = tmp_path / "b"
    assert main(["report", str(out1 / "manifest.json"), "-o", str(out2)]) == 0
    for name in ("comparison.csv", "comparison.json", "loss_tokens.svg"):
        assert _file_bytes(out1 / name) == _file_bytes(out2 / name)
    assert _file_bytes(out1 / "manifest.json") == _file_bytes(out2 / "manifest.json")


def test_density_manifest_replay_byte_identical(tmp_path, blob_fixture):
    out1 = tmp_path / "a"
    assert main(["density", str(blob_fixture), "--k", "2", "-o", str(out1)]) == 0
    out2 = tmp_path / "b"
    assert main(["report", str(out1 / "manifest.json"), "-o", str(out2)]) == 0
    assert _file_bytes(out1 / "density_report.json") == _file_bytes(
        out2 / "density_report.json"
    )


def test_report_rejects_changed_input(tmp_path, blob_fixture):
    out1 = tmp_path / "a"
    main(["density", str(blob_fixture), "--k", "2", "-o", str(out1)])
    blob_fixture.write_bytes(b"EMB1" + blob_fixture.read_bytes()[4:] + b"x")
    assert main(["report", str(out1 / "manifest.json"), "-o", str(tmp_path / "b")]) == 1


def test_report_rejects_deleted_input(tmp_path, blob_fixture, capsys):
    out1 = tmp_path / "a"
    assert main(["density", str(blob_fixture), "--k", "2", "-o", str(out1)]) == 0
    blob_fixture.unlink()
    assert main(["report", str(out1 / "manifest.json"), "-o", str(tmp_path / "b")]) == 1
    assert capsys.readouterr().err == f"subscale report: manifest input missing: {blob_fixture}\n"
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize(
    "manifest, message",
    [
        ([1], "manifest must be a JSON object, not a list"),
        ({"inputs": {}}, "manifest 'argv' must be a non-empty list of strings"),
        ({"argv": "fit"}, "manifest 'argv' must be a non-empty list of strings"),
        ({"argv": ["fit", 3]}, "manifest 'argv' must be a non-empty list of strings"),
        ({"argv": []}, "manifest 'argv' must be a non-empty list of strings"),
        ({"argv": ["report", "m.json"]}, "cannot replay 'report'"),
        ({"argv": ["fit"], "inputs": [1]}, "manifest 'inputs' must be a JSON object"),
        # no command records these, which print and write nothing
        ({"argv": ["--version"]}, "cannot replay '--version': it does not start with a command"),
        ({"argv": ["alloc", "--help"]}, "cannot replay '--help': help writes no outputs"),
        ({"argv": ["alloc", "--he"]}, "cannot replay '--he': help writes no outputs"),
        ({"argv": ["density", "e.emb", "-h"]}, "cannot replay '-h': help writes no outputs"),
        ({"argv": ["sweep", "-ho", "out"]}, "cannot replay '-ho': help writes no outputs"),
    ],
)
def test_report_bad_manifest_is_exit_one(tmp_path, capsys, manifest, message):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert main(["report", str(path), "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "content, fault",
    [(b"{", "is not valid JSON: Expecting property name enclosed in double quotes"),
     (b"\xff", "is not UTF-8 text: line 1: 'utf-8' codec can't decode byte 0xff in position 0"),
     (b'{\n"a": "\xff"}', "is not UTF-8 text: line 2: 'utf-8' codec can't decode byte 0xff"),
     (b"[" * 100_000, "is nested too deeply to read")],
    ids=["invalid", "not-utf8", "not-utf8-line-2", "deep"],
)
@pytest.mark.parametrize("kind", ["law file", "fit config", "synth spec", "manifest"])
def test_unreadable_json_document_names_its_kind_and_file(
    tmp_path, capsys, power_fixture, kind, content, fault
):
    doc = tmp_path / "doc.json"
    doc.write_bytes(content)
    argv = {
        "law file": ["alloc", "--law", str(doc), "--budget", "1e20"],
        "fit config": ["fit", str(power_fixture), "--family", "power", "--config", str(doc)],
        "synth spec": ["synth", "--spec", str(doc)],
        "manifest": ["report", str(doc)],
    }[kind]
    assert main(argv + ["-o", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"subscale {argv[0]}: {kind} {doc} {fault}")


def test_fit_manifest_records_no_threads_or_seed(tmp_path, power_fixture):
    # only report drops them, from older manifests: typed, they are a usage error
    out = tmp_path / "fit"
    with pytest.raises(SystemExit) as exc:
        main(["fit", str(power_fixture), "--family", "power", "--seed", "5", "--threads", "2",
              "-o", str(out)])
    assert exc.value.code == 1
    assert not out.exists()


def test_manifest_with_threads_and_seed_replays(tmp_path, suboptimal_fixture):
    # older manifests record --seed and --threads, which now have no effect
    out1 = tmp_path / "a"
    assert main(
        ["compare", str(suboptimal_fixture), "--family", "power",
         "--family", "chinchilla", "-o", str(out1)]
    ) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    manifest["argv"] += ["--seed", "5", "--threads", "2"]
    manifest["seed"] = 5
    manifest["threads"] = 2
    old = tmp_path / "old_manifest.json"
    old.write_text(json.dumps(manifest))
    out2 = tmp_path / "b"
    assert main(["report", str(old), "-o", str(out2)]) == 0
    for name in manifest["tables"] + manifest["plots"]:
        assert _file_bytes(out1 / name) == _file_bytes(out2 / name)


def test_threads_and_fit_seed_hidden_from_help(capsys):
    for command in ("fit", "compare"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = capsys.readouterr().out
        assert "--threads" not in text and "--seed" not in text


def test_console_script_smoke(tmp_path, power_fixture):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "subscale.cli", "fit", str(power_fixture),
         "--family", "power", "-o", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "fit_result.json").exists()


def _files(out):
    return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.mark.parametrize(
    "argv, code, printed",
    [
        (["select", "--k", "2", "--keep-fraction", "0.5"], 0, "kept 35/70; log density "),
        (["density", "--k", "2", "--max-iters", "0"], 1,
         "subscale density: max_iters must be >= 1, got 0\n"),
        (["density", "--k", "1"], 2, "subscale density: all cluster centroids coincide (R = 0)\n"),
    ],
    ids=["ok", "bad-input", "degenerate"],
)
def test_process_entry_matches_in_process_main(
    tmp_path, blob_fixture, capsys, argv, code, printed
):
    command = [argv[0], str(blob_fixture), *argv[1:], "-o"]
    proc = subprocess.run(
        [sys.executable, "-m", "subscale.cli", *command, str(tmp_path / "child")],
        capture_output=True, text=True,
    )
    frozen = gc.get_freeze_count()
    assert main(command + [str(tmp_path / "main")]) == code
    # only the process entry freezes the heap
    assert gc.get_freeze_count() == frozen
    got = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, got.out, got.err)
    assert (got.out if code == 0 else got.err).startswith(printed)
    assert _files(tmp_path / "child") == _files(tmp_path / "main")
    assert (tmp_path / "main" / "manifest.json").exists() == (code == 0)


def test_run_freezes_the_heap_and_exit_handlers_still_run(tmp_path, blob_fixture):
    out = tmp_path / "out"
    code = (
        "import atexit, gc, sys\n"
        "from subscale import cli\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
        f"sys.argv = ['subscale', 'density', {str(blob_fixture)!r}, '--k', '2', '-o', {str(out)!r}]\n"
        "sys.exit(cli.run())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("k=2 n=70 dim=4 ")
    assert proc.stdout.endswith("\nfrozen True\n")
    assert (out / "manifest.json").exists()


# ---------------------------------------------------------------------------
# argument contract
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "params, family",
    [(REF, "power"), (laws.PowerLawParams(lam=3.0, alpha=0.3), "chinchilla")],
)
def test_predict_family_mismatch_is_exit_one(tmp_path, power_fixture, capsys, params, family):
    law_path = _law_json(tmp_path, params)
    code = main(
        ["predict", str(power_fixture), "--params", str(law_path), "--family", family,
         "-o", str(tmp_path / "pred")]
    )
    assert code == 1
    assert f"cannot be evaluated as family '{family}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, message",
    [
        ({"max_iter": 1, "tolerence": 5}, "max_iter, tolerence"),
        ([1, 2], "JSON object"),
        ({"max_iters": None}, "'max_iters' must be an integer"),
        ({"bounds": {"alpha": [1]}}, "'bounds.alpha' must be a [lo, hi] pair"),
        ({"multistart_grid": {"alpha": 3}}, "'multistart_grid.alpha' must be a list"),
        ({"bounds": [0, 1]}, "fit config 'bounds' must be a JSON object, not a list"),
        ({"tolerance": None}, "fit config 'tolerance' must be a finite number, got None"),
        ({"robust_delta": "big"}, "fit config 'robust_delta' must be a finite number, got 'big'"),
        ({"max_iters": 2.5}, "'max_iters' must be an integer"),
        ({"multistart_grid": {"alpha": [0.1, "x"]}}, "'multistart_grid.alpha' must be a"),
        ({"tolerance": math.inf}, "fit config 'tolerance' must be a finite number, got inf"),
        ({"robust_delta": math.nan}, "fit config 'robust_delta' must be a finite number, got nan"),
        ({"bounds": {"alpha": [0.01, math.inf]}},
         "fit config 'bounds.alpha' must be a finite number, got inf"),
        ({"multistart_grid": {"alpha": [0.1, math.nan]}}, "'multistart_grid.alpha' must be a"),
        ({"bounds": {"alpah": [0.1, 0.2]}}, "'bounds.alpah' names no parameter of any law"),
        ({"multistart_grid": {"alpah": [0.1]}}, "'multistart_grid.alpah' names no parameter"),
    ],
)
def test_fit_bad_config_is_exit_one(tmp_path, power_fixture, capsys, config, message):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    code = main(
        ["fit", str(power_fixture), "--family", "power", "--config", str(config_path),
         "-o", str(tmp_path / "fit")]
    )
    assert code == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "families, bounds, message",
    [
        (["suboptimal"], {"alpha_n": [-1, 0.5]}, "alpha_n must be > 0"),
        (["suboptimal"], {"e_irreducible": [-10, 0.5]}, "e_irreducible must be >= 0"),
        (["suboptimal"], {"k1": [-1, 0.5]}, "k1 and k2 must be >= 0"),
        (["power", "chinchilla"], {"alpha_n": [-1, 0.5]}, "alpha_n must be > 0"),
        # checked when the config is read, whichever family is fitted
        (["power"], {"k2": [-1, 0.5]}, "k1 and k2 must be >= 0"),
        (["chinchilla"], {"alpha": [0, 1]}, "alpha must be > 0, got 0.0"),
    ],
    ids=["alpha_n", "e_irreducible", "k1", "compare", "k2-power", "alpha-chinchilla"],
)
def test_fit_bounds_outside_domain_is_exit_one(
    tmp_path, suboptimal_fixture, capsys, families, bounds, message
):
    (name, (lo, hi)), = bounds.items()
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"bounds": bounds}))
    family_args = [a for f in families for a in ("--family", f)]
    code = main(
        ["fit", str(suboptimal_fixture), *family_args, "--config", str(config_path),
         "-o", str(tmp_path / "fit")]
    )
    assert code == 1
    assert capsys.readouterr().err == (
        f"subscale fit: fit config 'bounds.{name}' = [{float(lo)!r}, {float(hi)!r}] "
        f"leaves the domain of {name}: {message}\n"
    )
    assert not (tmp_path / "fit" / "manifest.json").exists()


def test_fit_coefficient_box_from_zero_still_fits(tmp_path, suboptimal_fixture):
    # coefficients are fitted as logs, floored above 0, so 0 is a valid lower end
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"bounds": {"lambda_n": [0, 10]}}))
    code = main(
        ["fit", str(suboptimal_fixture), "--family", "suboptimal", "--config",
         str(config_path), "-o", str(tmp_path / "fit")]
    )
    assert code == 0


def test_parser_copies_match_their_sources():
    # the parser holds these so that most commands never import fit or alloc
    assert cli._FAMILY_CHOICES == sorted(fit.FAMILIES)
    assert cli._DEFAULT_N_BRACKET == alloc.DEFAULT_N_BRACKET


@pytest.mark.parametrize("budget", ["1e400", "inf", "nan"])
def test_alloc_non_finite_budget_is_exit_one(tmp_path, capsys, budget):
    law_path = _law_json(tmp_path, REF)
    code = main(["alloc", "--law", str(law_path), "--budget", budget, "-o", str(tmp_path / "x")])
    assert code == 1
    assert "budget must be finite and > 0" in capsys.readouterr().err


def test_sweep_zero_otr_points_is_exit_one(tmp_path, capsys):
    law_path = _law_json(tmp_path, REF)
    out = tmp_path / "sweep"
    code = main(
        ["sweep", "--law", str(law_path), "--budget", "1e20", "--otr-points", "0",
         "-o", str(out)]
    )
    assert code == 1
    assert "--otr-points must be >= 1, got 0" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize(
    "command, points",
    [(["sweep"], "-3"), (["alloc", "--sweep"], "0"), (["alloc", "--sweep"], "-3"),
     (["alloc"], "0")],
    ids=["sweep-minus-three", "alloc-sweep-zero", "alloc-sweep-minus-three", "alloc-zero"],
)
def test_otr_points_below_one_names_the_option(tmp_path, capsys, command, points):
    law_path = _law_json(tmp_path, REF)
    out = tmp_path / "x"
    argv = [*command, "--law", str(law_path), "--budget", "1e20", f"--otr-points={points}"]
    assert main(argv + ["-o", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"subscale {command[0]}: --otr-points must be >= 1, got {points}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("points", [10**6 + 1, 2**60, 2**63])
@pytest.mark.parametrize(
    "command", [["sweep"], ["alloc", "--sweep"], ["alloc"]], ids=["sweep", "alloc-sweep", "alloc"]
)
def test_otr_points_above_the_bound_names_the_option(tmp_path, capsys, command, points):
    # numpy cannot build a grid of 2**60 points, and 2**63 overflows its index
    law_path = _law_json(tmp_path, REF)
    out = tmp_path / "x"
    argv = [*command, "--law", str(law_path), "--budget", "1e20", f"--otr-points={points}"]
    assert main(argv + ["-o", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"subscale {command[0]}: --otr-points must be <= 1000000, got {points}\n"
    )
    assert not out.exists()


def test_sweep_budget_whose_plot_curve_overflows_is_exit_one(tmp_path, capsys):
    # the budget itself sweeps; the plot's curve at 10 times it is inf
    law_path = _law_json(tmp_path, REF)
    out = tmp_path / "x"
    assert main(["sweep", "--law", str(law_path), "--budget", "1e308", "-o", str(out)]) == 1
    assert capsys.readouterr().err == (
        "subscale sweep: --budget 1e+308 gives the sweep plot's 10x curve a budget of inf, "
        "which is not finite and > 0\n"
    )
    assert not out.exists()


def test_alloc_scan_over_a_wide_bracket_prints_no_warning(tmp_path, capsys):
    # the scan's smallest n puts budget / (6 n) beyond the float range
    law_path = _law_json(tmp_path, REF)
    argv = ["alloc", "--law", str(law_path), "--budget", "1e21", "--n-min", "1e-300",
            "--n-max", "1e300", "-o", str(tmp_path / "x")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("steepness", ["k1", "k2"])
def test_alloc_zero_steepness_over_a_wide_bracket_prints_no_warning(tmp_path, capsys, steepness):
    # the scan's smallest n sends the tokens, and so the OTR, to inf, where a
    # zero steepness still gives its factor of 1.5
    law_path = _law_json(tmp_path, dataclasses.replace(REF, **{steepness: 0.0}))
    argv = ["alloc", "--law", str(law_path), "--budget", "1e21", "--n-min", "1e-300",
            "--n-max", "1e300", "-o", str(tmp_path / "x")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "command, message",
    [
        (["alloc", "--n-max", "inf"], "--n-max must be finite and > 0, got inf"),
        (["sweep", "--otr-min", "0"], "--otr-min must be finite and > 0, got 0.0"),
        (["sweep", "--otr-max", "1e308"], "otr 1e+308 leaves budget 1e+21 no finite (n, d)"),
        # without --sweep the grid is unused, but the manifest would record it
        (["alloc", "--otr-min=-5"], "--otr-min must be finite and > 0, got -5.0"),
    ],
    ids=["alloc-n-max-inf", "sweep-otr-min-zero", "sweep-otr-max-overflows",
         "alloc-otr-min-negative"],
)
def test_alloc_and_sweep_out_of_range_bracket_or_grid_is_exit_one(
    tmp_path, capsys, command, message
):
    law_path = _law_json(tmp_path, REF)
    out = tmp_path / "x"
    argv = [*command, "--law", str(law_path), "--budget", "1e21", "-o", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    assert capsys.readouterr().err == f"subscale {command[0]}: {message}\n"
    assert not (out / "manifest.json").exists()


def test_ingest_sigma_without_window_is_exit_one(tmp_path, power_fixture, capsys):
    out = tmp_path / "out"
    code = main(["ingest", str(power_fixture), "--smooth-sigma", "2.0", "-o", str(out)])
    assert code == 1
    assert "--smooth-sigma needs --smooth-window" in capsys.readouterr().err
    assert not (out / "runs.csv").exists()


@pytest.mark.parametrize("window", [2**40, 2**62])
def test_smooth_window_longer_than_every_run_names_the_run(
    tmp_path, power_fixture, capsys, window
):
    # the runs are checked before the kernel, which would hold `window` weights
    out = tmp_path / "out"
    argv = ["ingest", str(power_fixture), "--smooth-window", str(window), "-o", str(out)]
    assert main(argv) == 1
    run_id = runs.ingest(power_fixture).records[0].run_id
    assert capsys.readouterr().err == (
        f"subscale ingest: run {run_id!r} has 16 records, fewer than window {window}; "
        "reduce the window\n"
    )
    assert not out.exists()


_POWER = {"family": "power", "lambda": 3.0, "alpha": 0.3}
_CHINCHILLA = {"family": "chinchilla", "e_irreducible": 1.4, "lambda_n": 61.9,
               "alpha_n": 0.27, "lambda_d": 455.3, "alpha_d": 0.29}


def _argv_with_law(tmp_path, runs_path, command, law):
    """argv of a command that reads ``law``; synth reads it from a curves spec."""
    path = tmp_path / "law.json"
    out = ["-o", str(tmp_path / "out")]
    if command == "synth":
        spec = {"kind": "curves", "law": law, "model_sizes": [10**7],
                "token_checkpoints": [[10**8, 2 * 10**8]]}
        path.write_text(json.dumps(spec))
        return ["synth", "--spec", str(path)] + out
    path.write_text(json.dumps(law))
    if command == "predict":
        return ["predict", str(runs_path), "--params", str(path)] + out
    return [command, "--law", str(path), "--budget", "1e20"] + out


@pytest.mark.parametrize("command", ["alloc", "sweep", "predict", "synth"])
@pytest.mark.parametrize(
    "law, message",
    [
        ([1], "law params must be a JSON object, not a list"),
        (dict(_POWER, **{"lambda": [1]}), "power law params: 'lambda' must be a finite number"),
        (dict(_POWER, **{"lambda": True}), "'lambda' must be a finite number, got True"),
        (dict(_CHINCHILLA, e_irreducible=math.nan), "'e_irreducible' must be a finite number"),
        (dict(_CHINCHILLA, lambda_n=math.inf), "'lambda_n' must be a finite number"),
        ({"family": "power", "alpha": 0.3}, "power law params: missing field 'lambda'"),
        ({"alpha": 0.3}, "law params: missing field 'family'"),
        ({"family": "saturating_perf", "p0": 0.9}, "unknown law family 'saturating_perf'"),
        ({"family": "decayed_perf", "decay": 0.5}, "unknown law family 'decayed_perf'"),
    ],
    ids=["not-object", "list", "bool", "nan", "inf", "no-key", "no-family", "saturating_perf",
         "decayed_perf"],
)
def test_bad_law_file_is_exit_one(tmp_path, power_fixture, capsys, command, law, message):
    code = main(_argv_with_law(tmp_path, power_fixture, command, law))
    err = capsys.readouterr().err
    assert code == 1
    assert message in err


def test_alloc_on_power_law_names_the_family(tmp_path, capsys):
    code = main(_argv_with_law(tmp_path, None, "alloc", _POWER))
    err = capsys.readouterr().err
    assert code == 1
    assert "allocation needs a chinchilla or suboptimal law, got 'power'" in err
    assert "unknown law family" not in err


def test_sweep_on_power_law_draws_no_locus_and_replays(tmp_path, capsys):
    # a power law has no compute-optimal split, so alloc refuses it, but its
    # loss along the budget curve is defined and sweep plots it
    out = tmp_path / "out"
    assert main(_argv_with_law(tmp_path, None, "sweep", _POWER)) == 0
    assert capsys.readouterr().err == ""
    svg = (out / "alloc_sweep.svg").read_text()
    assert "budget 1.00e+20" in svg and "optimal locus" not in svg
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tables"] == ["sweep.csv"] and manifest["plots"] == ["alloc_sweep.svg"]
    replay = tmp_path / "replay"
    assert main(["report", str(out / "manifest.json"), "-o", str(replay)]) == 0
    assert _files(replay) == _files(out)
    assert main(_argv_with_law(tmp_path, None, "alloc", _POWER)) == 1
    assert capsys.readouterr().err == (
        "subscale alloc: allocation needs a chinchilla or suboptimal law, got 'power'\n"
    )


_CURVES = {"kind": "curves", "law": _POWER, "model_sizes": [1000],
           "token_checkpoints": [[10, 20, 30]], "seed": 4}
_BLOBS = {"kind": "blobs", "k": 1, "dim": 2, "seed": 1,
          "per_cluster": [{"n_samples": 5, "centroid": [0.0, 1.0], "spread": 0.5}]}


@pytest.mark.parametrize(
    "spec, message",
    [
        ([1], "spec must be a JSON object, not a list"),
        ({"kind": "curves"}, "spec: missing field 'law'"),
        ({k: v for k, v in _BLOBS.items() if k != "per_cluster"},
         "spec: missing field 'per_cluster'"),
        (dict(_BLOBS, per_cluster=[{"n_samples": 5, "centroid": [0.0, 1.0]}]),
         "spec 'per_cluster' entry: missing field 'spread'"),
        (dict(_CURVES, seed=1.5), "spec 'seed' must be an integer, got 1.5"),
        (dict(_CURVES, model_sizes=[1000.7]), "spec 'model_sizes' must be an integer, got 1000.7"),
        (dict(_CURVES, token_checkpoints=[[10, 20, 30.9]]),
         "spec 'token_checkpoints' must be an integer, got 30.9"),
        (dict(_CURVES, noise_sigma=math.inf), "spec 'noise_sigma' must be a finite number"),
        (dict(_CURVES, noise_sigma=math.nan), "spec 'noise_sigma' must be a finite number"),
        (dict(_CURVES, model_sizes=1000), "spec 'model_sizes' must be a list"),
        (dict(_BLOBS, per_cluster=[{"n_samples": 5, "centroid": [0.0, math.inf],
                                    "spread": 0.5}]), "spec 'centroid' must be a finite"),
    ],
    ids=["not-object", "no-law", "no-per_cluster", "no-spread", "seed", "model_sizes",
         "checkpoint", "inf-noise", "nan-noise", "not-list", "inf-centroid"],
)
def test_bad_synth_spec_is_exit_one(tmp_path, capsys, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    code = main(["synth", "--spec", str(path), "-o", str(out)])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("key", ["model_sizes", "token_checkpoints"])
@pytest.mark.parametrize("count", [2**60, 1e300, 10**300], ids=["2^60", "1e300", "301-digit"])
def test_synth_spec_count_beyond_the_run_file_bound_is_exit_one(tmp_path, capsys, key, count):
    # above 2^53 ingest rejects the written runs file; beyond the float range
    # the loss cannot be evaluated
    spec = dict(_CURVES, **{key: [count] if key == "model_sizes" else [[10, 20, count]]})
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    code = main(["synth", "--spec", str(path), "-o", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert f"spec '{key}' must be an integer below 9007199254740992 in magnitude" in err
    assert "Traceback" not in err
    assert not (out / "manifest.json").exists()


def test_synth_spec_counts_below_2_53_ingest(tmp_path):
    spec = dict(_CURVES, model_sizes=[2**53 - 1], token_checkpoints=[[10, 2**53 - 1]])
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["synth", "--spec", str(path), "-o", str(tmp_path / "synth")]) == 0
    runs_csv = tmp_path / "synth" / "runs.csv"
    assert main(["ingest", str(runs_csv), "-o", str(tmp_path / "ingest")]) == 0
    assert runs.ingest(runs_csv).records[1].tokens == 2**53 - 1


def test_synth_integral_float_spec_matches_integer_spec(tmp_path):
    as_floats = dict(_CURVES, model_sizes=[1000.0], token_checkpoints=[[10.0, 20, 30.0]],
                     noise_sigma=0.01, seed=4.0)
    outputs = []
    for name, spec in (("ints", dict(_CURVES, noise_sigma=0.01)), ("floats", as_floats)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(spec))
        assert main(["synth", "--spec", str(path), "-o", str(tmp_path / name)]) == 0
        outputs.append((tmp_path / name / "runs.csv").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "runs.csv", "--threads", "4", "-o", "out"],  # fit takes no --threads
        ["alloc", "--law", "law.json", "--budget", "lots", "-o", "out"],
        ["no-such-command"],
        [],
    ],
)
def test_usage_error_is_exit_one(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "usage: subscale" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["fit", "--help"]])
def test_help_and_version_are_exit_zero(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0


# ---------------------------------------------------------------------------
# manifest argv builder
# ---------------------------------------------------------------------------


@pytest.fixture()
def cli_inputs(tmp_path, monkeypatch, power_fixture, suboptimal_fixture, blob_fixture):
    """Every input file of the golden commands, in tmp_path, which is the cwd."""
    _law_json(tmp_path, laws.PowerLawParams(lam=3.0, alpha=0.3), "law.json")
    _law_json(tmp_path, REF, "sub_law.json")
    (tmp_path / "config.json").write_text(json.dumps({"max_iters": 50}))
    curves = synth.CurveSpec(
        law=laws.PowerLawParams(lam=2.0, alpha=0.2),
        model_sizes=(10**7,),
        token_checkpoints=((10**8, 2 * 10**8, 4 * 10**8, 8 * 10**8),),
        noise_sigma=0.01,
        seed=5,
    )
    (tmp_path / "curves.json").write_text(json.dumps(curves.to_dict()))
    blobs = synth.BlobSpec(
        k=1, dim=2, per_cluster=(synth.BlobCluster(8, (0.0, 0.0), 1.0),), seed=2
    )
    (tmp_path / "blobs.json").write_text(json.dumps(blobs.to_dict()))
    monkeypatch.chdir(tmp_path)
    return tmp_path.resolve()


_N_BRACKET = ["--n-min", "1000000.0", "--n-max", "10000000000000.0"]
_OTR_DEFAULTS = ["--otr-min", "1.0", "--otr-max", "2000.0", "--otr-points", "25"]

# id: (command line, recorded argv, input files, recorded seed); paths are
# given relative to the cwd and recorded absolute ("@" marks the directory)
GOLDEN = {
    "ingest": (
        ["ingest", "power_runs.csv", "--smooth-window", "3", "--smooth-sigma", "1.5"],
        ["ingest", "@/power_runs.csv", "--smooth-window", "3", "--smooth-sigma", "1.5"],
        ["power_runs.csv"],
        None,
    ),
    "fit-config": (
        ["fit", "power_runs.csv", "--family", "power", "--config", "config.json"],
        ["fit", "@/power_runs.csv", "--family", "power", "--config", "@/config.json",
         "--split-fraction", "0.25"],
        ["power_runs.csv", "config.json"],
        None,
    ),
    "compare-defaults": (
        ["compare", "sub_runs.csv"],
        ["fit", "@/sub_runs.csv", "--family", "power", "--family", "chinchilla",
         "--family", "suboptimal", "--split-fraction", "0.25"],
        ["sub_runs.csv"],
        None,
    ),
    "predict": (
        ["predict", "power_runs.csv", "--params", "law.json"],
        ["predict", "@/power_runs.csv", "--params", "@/law.json", "--family", "power"],
        ["power_runs.csv", "law.json"],
        None,
    ),
    "alloc": (
        ["alloc", "--law", "sub_law.json", "--budget", "1e20"],
        ["alloc", "--law", "@/sub_law.json", "--budget", "1e+20", *_N_BRACKET,
         *_OTR_DEFAULTS],
        ["sub_law.json"],
        None,
    ),
    "alloc-sweep": (
        ["alloc", "--law", "sub_law.json", "--budget", "1e20", "--sweep",
         "--otr-points", "5"],
        ["alloc", "--law", "@/sub_law.json", "--budget", "1e+20", *_N_BRACKET,
         "--sweep", "--otr-min", "1.0", "--otr-max", "2000.0", "--otr-points", "5"],
        ["sub_law.json"],
        None,
    ),
    "sweep": (
        ["sweep", "--law", "sub_law.json", "--budget", "1e19", "--otr-min", "2",
         "--otr-max", "500", "--otr-points", "9"],
        ["sweep", "--law", "@/sub_law.json", "--budget", "1e+19", "--otr-min", "2.0",
         "--otr-max", "500.0", "--otr-points", "9"],
        ["sub_law.json"],
        None,
    ),
    "density-normalize": (
        ["density", "vectors.emb", "--k", "2", "--normalize"],
        ["density", "@/vectors.emb", "--k", "2", "--seed", "0", "--max-iters", "100",
         "--normalize"],
        ["vectors.emb"],
        0,
    ),
    "select-keep": (
        ["select", "vectors.emb", "--k", "2", "--keep-fraction", "0.7", "--seed", "4"],
        ["select", "@/vectors.emb", "--k", "2", "--seed", "4", "--max-iters", "100",
         "--keep-fraction", "0.7"],
        ["vectors.emb"],
        4,
    ),
    "select-target": (
        ["select", "vectors.emb", "--k", "2", "--target-log-density", "-10.5"],
        ["select", "@/vectors.emb", "--k", "2", "--seed", "0", "--max-iters", "100",
         "--target-log-density=-10.5"],
        ["vectors.emb"],
        0,
    ),
    "synth-curves": (
        ["synth", "--spec", "curves.json", "--seed", "6"],
        ["synth", "--spec", "@/curves.json", "--seed", "6", "--runs-format", "csv",
         "--emb-format", "emb"],
        ["curves.json"],
        6,
    ),
    "synth-blobs": (
        ["synth", "--spec", "blobs.json", "--emb-format", "csv"],
        ["synth", "--spec", "@/blobs.json", "--seed", "2", "--runs-format", "csv",
         "--emb-format", "csv"],
        ["blobs.json"],
        2,
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_manifest_argv_golden(cli_inputs, case):
    argv, recorded, inputs, seed = GOLDEN[case]
    assert main(argv + ["-o", "out"]) == 0
    manifest = json.loads((cli_inputs / "out" / "manifest.json").read_text())
    assert manifest["command"] == recorded[0]
    assert manifest["argv"] == [a.replace("@", str(cli_inputs), 1) for a in recorded]
    assert sorted(manifest["inputs"]) == sorted(str(cli_inputs / f) for f in inputs)
    assert manifest["seed"] == seed
    written = sorted(p.name for p in (cli_inputs / "out").iterdir())
    assert sorted(manifest["tables"] + manifest["plots"] + ["manifest.json"]) == written


# id: (command line, exit code); each fails after its inputs are read
FAILING = {
    "ingest": (["ingest", "bad_runs.csv"], 1),
    "fit": (["fit", "power_runs.csv", "--family", "power", "--config", "bad.json"], 1),
    "compare": (["compare", "bad_runs.csv"], 1),
    "predict": (["predict", "power_runs.csv", "--params", "bad.json"], 1),
    "alloc": (["alloc", "--law", "sub_law.json", "--budget", "1e20", "--n-max", "1e8"], 2),
    "alloc-sweep": (
        ["alloc", "--law", "sub_law.json", "--budget", "1e20", "--sweep", "--otr-min", "0"], 1
    ),
    "sweep": (["sweep", "--law", "sub_law.json", "--budget", "1e308"], 1),
    "density": (["density", "vectors.emb", "--k", "99"], 1),
    "select": (["select", "vectors.emb", "--k", "2", "--target-log-density=-1e9"], 2),
    "synth": (["synth", "--spec", "bad.json"], 1),
}


@pytest.mark.parametrize("case", sorted(FAILING))
def test_failing_command_writes_no_output_directory(cli_inputs, capsys, case):
    (cli_inputs / "bad_runs.csv").write_text("run_id,model_size\nr1,x\n")
    (cli_inputs / "bad.json").write_text("{")
    argv, code = FAILING[case]
    assert main(argv + ["-o", "out"]) == code
    assert capsys.readouterr().err.startswith(f"subscale {argv[0]}: ")
    assert not (cli_inputs / "out").exists()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_manifest_argv_round_trip(cli_inputs, monkeypatch, case):
    # the effective values a command ran with, read when it writes its manifest
    ran_with = []
    write_manifest = cli._write_manifest

    def spy(args, *rest, **kwargs):
        ran_with.append(vars(args).copy())
        write_manifest(args, *rest, **kwargs)

    monkeypatch.setattr(cli, "_write_manifest", spy)
    assert main(GOLDEN[case][0] + ["-o", "out"]) == 0
    manifest = json.loads((cli_inputs / "out" / "manifest.json").read_text())
    replayed = vars(cli.build_parser().parse_args(manifest["argv"] + ["-o", "again"]))
    skip = {"command", "handler", "parser", "out"}
    assert {k: v for k, v in replayed.items() if k not in skip} == {
        k: v for k, v in ran_with[0].items() if k not in skip
    }


@pytest.mark.parametrize(
    "argv, parent_argv",
    [
        (["alloc", "--law", "sub_law.json", "--budget", "1e20"],
         ["alloc", "--law", "@/sub_law.json", "--budget", "1e+20", *_N_BRACKET]),
        (["synth", "--spec", "curves.json"],
         ["synth", "--spec", "@/curves.json", "--seed", "5", "--runs-format", "csv"]),
        (["synth", "--spec", "blobs.json"],
         ["synth", "--spec", "@/blobs.json", "--seed", "2", "--emb-format", "emb"]),
        (["select", "vectors.emb", "--k", "2", "--target-log-density", "-10.5"],
         ["select", "@/vectors.emb", "--k", "2", "--seed", "0", "--max-iters", "100",
          "--target-log-density", "-10.5"]),
    ],
    ids=["alloc", "synth-curves", "synth-blobs", "select-target-two-tokens"],
)
def test_parent_shape_manifest_replays(cli_inputs, argv, parent_argv):
    # manifests written by older versions: before the argv builder they
    # recorded fewer defaults, and a negative value as a token of its own
    assert main(argv + ["-o", "a"]) == 0
    manifest = json.loads((cli_inputs / "a" / "manifest.json").read_text())
    manifest["argv"] = [a.replace("@", str(cli_inputs), 1) for a in parent_argv]
    old = cli_inputs / "old_manifest.json"
    old.write_text(json.dumps(manifest))
    assert main(["report", str(old), "-o", "b"]) == 0
    for name in manifest["tables"] + manifest["plots"]:
        assert _file_bytes(cli_inputs / "a" / name) == _file_bytes(cli_inputs / "b" / name)


def test_select_target_in_e_notation_replays(tmp_path):
    # a tight two-blob set, whose log density starts above the target
    spec = synth.BlobSpec(
        k=2,
        dim=3,
        per_cluster=(
            synth.BlobCluster(50, (0.0, 0.0, 0.0), 0.3),
            synth.BlobCluster(20, (4.0, 4.0, 4.0), 0.5),
        ),
        seed=1,
    )
    path = tmp_path / "tight.emb"
    density.save_embeddings(path, synth.gen_blobs(spec)[0])
    argv = ["select", str(path), "--k", "2", "--target-log-density=-0.00001"]
    assert main(argv + ["-o", str(tmp_path / "a")]) == 0
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["argv"][-1] == "--target-log-density=-1e-05"
    assert main(["report", str(tmp_path / "a" / "manifest.json"), "-o", str(tmp_path / "b")]) == 0
    assert len((tmp_path / "a" / "retained_ids.txt").read_text().split()) < 70
    for name in manifest["tables"] + ["manifest.json"]:
        assert _file_bytes(tmp_path / "a" / name) == _file_bytes(tmp_path / "b" / name)


@pytest.mark.parametrize("value", ["-1e-05", "-1e+20", "-inf"])
def test_value_that_starts_with_a_dash_is_recorded_as_one_token(cli_inputs, value):
    # no selection reaches a log density of -1e+20 or -inf, so the manifest is
    # written and parsed back here without running the command
    args = cli.build_parser().parse_args(
        ["select", "vectors.emb", "--k", "2", f"--target-log-density={value}", "-o", "a"]
    )
    cli._write_manifest(args, cli_inputs, [])
    argv = json.loads((cli_inputs / "manifest.json").read_text())["argv"]
    assert argv[-1] == f"--target-log-density={value}"
    assert cli.build_parser().parse_args(argv + ["-o", "b"]).target_log_density == float(value)


# ---------------------------------------------------------------------------
# result tables, smoothing and overflow
# ---------------------------------------------------------------------------


def test_text_cells_are_quoted(tmp_path):
    # a comma and a double quote in a run id: ingest reads it quoted, and
    # residuals.csv and predictions.csv must give it back as one cell
    run_id = 'run,1 "big"'
    spec = synth.CurveSpec(
        law=laws.ChinchillaParams(1.7, 400.0, 0.34, 410.0, 0.28),
        model_sizes=(10**7, 10**8, 10**9),
        token_checkpoints=tuple(
            tuple(int(n * 3 * 1.5**i) for i in range(12)) for n in (1e7, 1e8, 1e9)
        ),
    )
    records = [
        dataclasses.replace(r, run_id=run_id + r.run_id) for r in synth.gen_curves(spec).records
    ]
    path = tmp_path / "runs.csv"
    runs.write_csv(runs.RunSeries(records), path)
    law = _law_json(tmp_path, spec.law)
    assert main(["fit", str(path), "--family", "chinchilla", "-o", str(tmp_path / "fit")]) == 0
    assert main(["predict", str(path), "--params", str(law), "-o", str(tmp_path / "pred")]) == 0
    for table in (tmp_path / "fit" / "residuals.csv", tmp_path / "pred" / "predictions.csv"):
        with table.open(newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        assert rows and all(len(row) == len(header) for row in rows)
        assert {row[0] for row in rows} <= {r.run_id for r in records}
        assert all(row[0].startswith(run_id) for row in rows)


@pytest.mark.parametrize(
    "control", ["\r", "\n", "\t", "\x00", "\x1f", "\x7f"],
    ids=["CR", "LF", "TAB", "NUL", "US", "DEL"],
)
@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("command", [["ingest"], ["fit", "--family", "power"]])
def test_control_character_in_run_id_is_exit_one(tmp_path, power_fixture, command, fmt, control):
    # csv.writer leaves a bare carriage return unquoted, so residuals.csv
    # would split each row of such a run in two
    # written by hand: RunSeries itself refuses such an id
    rows = [
        dict(dataclasses.asdict(r), run_id=f"a{control}b")
        for r in runs.ingest(power_fixture).records
    ]
    path = tmp_path / f"runs.{fmt}"
    with path.open("w", newline="", encoding="utf-8") as fh:
        if fmt == "csv":
            writer = csv.DictWriter(fh, runs.CSV_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
        else:
            fh.writelines(json.dumps(row) + "\n" for row in rows)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "subscale.cli", command[0], str(path), *command[1:],
         "-o", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr == (
        f"subscale {command[0]}: row 1: run_id {f'a{control}b'!r} holds the control "
        f"character {control!r}\n"
    )
    assert not out.exists() or not any(out.iterdir())


def test_ingest_underflowing_sigma_is_exit_one(tmp_path, power_fixture):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "subscale.cli", "ingest", str(power_fixture),
         "--smooth-window", "3", "--smooth-sigma", "1e-170", "-o", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr == (
        "subscale ingest: sigma 1e-170 is too small: 2*sigma**2 underflows to 0\n"
    )
    assert not (out / "runs.csv").exists()


def test_ingest_tiny_sigma_leaves_losses_without_warnings(tmp_path, power_fixture):
    # 2*sigma**2 is a subnormal: every weight but the centre one is exp(-inf) = 0
    out = tmp_path / "out"
    argv = ["ingest", str(power_fixture), "--smooth-window", "3", "--smooth-sigma", "1e-160"]
    assert main(argv + ["-o", str(out)]) == 0
    before = [r.loss for r in runs.ingest(power_fixture).records]
    assert [r.loss for r in runs.ingest(out / "runs.csv").records] == before


OVERFLOWING_LAW = laws.ChinchillaParams(1.7e308, 1e308, 0.001, 1.0, 0.3)
OVERFLOW_MESSAGE = (
    "the chinchilla law's loss overflows the float range; its parameters are out of range\n"
)


@pytest.mark.parametrize(
    "command, table",
    [
        (["predict", "{runs}", "--params", "{law}"], "predictions.csv"),
        (["sweep", "--law", "{law}", "--budget", "1e21"], "sweep.csv"),
        (["alloc", "--law", "{law}", "--budget", "1e21", "--sweep"], "allocation.json"),
    ],
    ids=["predict", "sweep", "alloc"],
)
def test_overflowing_law_is_exit_one_before_any_table(tmp_path, power_fixture, command, table):
    law = _law_json(tmp_path, OVERFLOWING_LAW)
    argv = [a.format(runs=power_fixture, law=law) for a in command]
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "subscale.cli", *argv, "-o", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr == f"subscale {command[0]}: {OVERFLOW_MESSAGE}"
    assert not (out / table).exists() and not (out / "manifest.json").exists()
