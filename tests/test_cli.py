import csv
import dataclasses
import json
import math
import subprocess
import sys
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


@pytest.mark.parametrize("fraction", ["1.5", "0.0", "-0.25"])
def test_fit_split_fraction_out_of_range_is_exit_one(tmp_path, power_fixture, capsys, fraction):
    out = tmp_path / "fit"
    code = main(
        ["fit", str(power_fixture), "--family", "power", "--split-fraction", fraction,
         "-o", str(out)]
    )
    assert code == 1
    assert "fraction must be in (0, 1)" in capsys.readouterr().err
    assert not (out / "fit_result.json").exists()


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
    density.save_embeddings(path, density.EmbeddingSet.from_array(x))
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


def test_select_lowers_density(tmp_path, blob_fixture):
    out = tmp_path / "sel"
    code = main(
        ["select", str(blob_fixture), "--k", "2", "--keep-fraction", "0.7", "-o", str(out)]
    )
    assert code == 0
    sel = json.loads((out / "selection.json").read_text())
    assert sel["n_after"] == math.ceil(0.7 * 70)
    assert sel["log_density_after"] <= sel["log_density_before"]


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
    ],
)
def test_report_bad_manifest_is_exit_one(tmp_path, capsys, manifest, message):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert main(["report", str(path), "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_thread_count_does_not_change_tables(tmp_path, suboptimal_fixture):
    out1 = tmp_path / "t1"
    out4 = tmp_path / "t4"
    main(["fit", str(suboptimal_fixture), "--family", "suboptimal", "--threads", "1",
          "-o", str(out1)])
    main(["fit", str(suboptimal_fixture), "--family", "suboptimal", "--threads", "4",
          "-o", str(out4)])
    assert _file_bytes(out1 / "fit_result.json") == _file_bytes(out4 / "fit_result.json")
    assert _file_bytes(out1 / "residuals.csv") == _file_bytes(out4 / "residuals.csv")


def test_fit_manifest_records_no_threads_or_seed(tmp_path, power_fixture):
    out = tmp_path / "fit"
    assert main(
        ["fit", str(power_fixture), "--family", "power", "--seed", "5", "--threads", "2",
         "-o", str(out)]
    ) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert "threads" not in manifest
    assert manifest["seed"] is None
    assert "--threads" not in manifest["argv"] and "--seed" not in manifest["argv"]


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
        ({"bounds": [0, 1]}, "'bounds' must be an object"),
        ({"tolerance": None}, "'tolerance' must be a number"),
        ({"robust_delta": "big"}, "'robust_delta' must be a number"),
        ({"max_iters": 2.5}, "'max_iters' must be an integer"),
        ({"multistart_grid": {"alpha": [0.1, "x"]}}, "'multistart_grid.alpha' must be a"),
        ({"tolerance": math.inf}, "'tolerance' must be a number"),
        ({"robust_delta": math.nan}, "'robust_delta' must be a number"),
        ({"bounds": {"alpha": [0.01, math.inf]}}, "'bounds.alpha' must be a number"),
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
    ],
    ids=["alpha_n", "e_irreducible", "k1", "compare"],
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
    law = families[-1]
    assert capsys.readouterr().err == (
        f"subscale fit: fit config 'bounds.{name}' = [{float(lo)!r}, {float(hi)!r}] "
        f"leaves the domain of the {law} law: {message}\n"
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
    assert "otr_values must not be empty" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


def test_ingest_sigma_without_window_is_exit_one(tmp_path, power_fixture, capsys):
    out = tmp_path / "out"
    code = main(["ingest", str(power_fixture), "--smooth-sigma", "2.0", "-o", str(out)])
    assert code == 1
    assert "--smooth-sigma needs --smooth-window" in capsys.readouterr().err
    assert not (out / "runs.csv").exists()


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


_CURVES = {"kind": "curves", "law": _POWER, "model_sizes": [1000],
           "token_checkpoints": [[10, 20, 30]], "seed": 4}
_BLOBS = {"kind": "blobs", "k": 1, "dim": 2, "seed": 1,
          "per_cluster": [{"n_samples": 5, "centroid": [0.0, 1.0], "spread": 0.5}]}


@pytest.mark.parametrize(
    "spec, message",
    [
        ([1], "spec must be a JSON object, got [1]"),
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
        ["fit", "runs.csv", "-o", "out"],  # --family is required
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
         "--target-log-density", "-10.5"],
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
    ],
    ids=["alloc", "synth-curves", "synth-blobs"],
)
def test_parent_shape_manifest_replays(cli_inputs, argv, parent_argv):
    # manifests written before the argv builder record fewer defaults
    assert main(argv + ["-o", "a"]) == 0
    manifest = json.loads((cli_inputs / "a" / "manifest.json").read_text())
    manifest["argv"] = [a.replace("@", str(cli_inputs), 1) for a in parent_argv]
    old = cli_inputs / "old_manifest.json"
    old.write_text(json.dumps(manifest))
    assert main(["report", str(old), "-o", "b"]) == 0
    for name in manifest["tables"] + manifest["plots"]:
        assert _file_bytes(cli_inputs / "a" / name) == _file_bytes(cli_inputs / "b" / name)


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
    runs.write_csv(runs.RunSeries.from_records(records), path)
    law = _law_json(tmp_path, spec.law)
    assert main(["fit", str(path), "--family", "chinchilla", "-o", str(tmp_path / "fit")]) == 0
    assert main(["predict", str(path), "--params", str(law), "-o", str(tmp_path / "pred")]) == 0
    for table in (tmp_path / "fit" / "residuals.csv", tmp_path / "pred" / "predictions.csv"):
        with table.open(newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        assert rows and all(len(row) == len(header) for row in rows)
        assert {row[0] for row in rows} <= {r.run_id for r in records}
        assert all(row[0].startswith(run_id) for row in rows)


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
