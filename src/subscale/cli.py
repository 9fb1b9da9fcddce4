"""Command-line pipeline: ingest, fit, compare, allocate, density, select.

Every command writes its tables and plots into an output directory together
with ``manifest.json`` recording the normalized argument vector, input file
hashes, the effective seed, and the tool version.  ``subscale report
<manifest> -o DIR`` replays the recorded command; outputs are byte-identical
because nothing in the pipeline depends on time or environment.

Exit codes: 0 success, 1 input/usage error, 2 analytic failure (no
convergence, no interior minimum, degenerate geometry, unreachable target).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .errors import SubscaleError

if TYPE_CHECKING:
    import numpy as np

    from . import alloc, fit, laws, runs
    from .svg import SvgPlot

# Each handler imports the modules its command runs, so that a child process
# loads only those (and `--version` or `--help` no numpy); calls still go
# through module attributes.  The parser reads these copies of
# sorted(fit.FAMILIES) and alloc.DEFAULT_N_BRACKET, which tests pin to their
# sources, instead of importing fit and alloc for every command.
_FAMILY_CHOICES = ["batch_power", "chinchilla", "lr_power", "power", "suboptimal"]
_DEFAULT_N_BRACKET = (1e6, 1e13)
_DEFAULT_FAMILIES = ["power", "chinchilla", "suboptimal"]


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _json_default(obj):
    """A law as its params file, any other dataclass as its fields."""
    from . import laws  # reached only by the commands that already loaded it

    if isinstance(obj, laws.LawParams):
        return laws.params_to_dict(obj)
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _json_text(obj) -> str:
    return json.dumps(
        obj, indent=2, sort_keys=True, allow_nan=False, default=_json_default
    )


def _write_json(path: Path, obj) -> None:
    path.write_text(_json_text(obj) + "\n", encoding="utf-8")


def _cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    # csv writes str(value); a numpy float's str follows numpy's print options
    return float(value) if isinstance(value, float) else value


def _write_table(path: Path, header, rows) -> None:
    """The one CSV writer of result tables: LF line ends, minimal quoting."""
    import csv

    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(c) for c in row] for row in rows)


def _write_fit_table(path: Path, rows) -> None:
    """Fit columns, then the union of the rows' parameter names in first-seen order."""
    from . import laws

    records = [{} if r.params is None else laws.params_to_dict(r.params) for r in rows]
    names = list(dict.fromkeys(k for rec in records for k in rec if k != "family"))
    _write_table(
        path,
        ["family", "mape_fit", "mape_pred", "converged"] + names,
        (
            [r.family, r.mape_fit, r.mape_pred, r.converged] + [rec.get(k) for k in names]
            for r, rec in zip(rows, records)
        ),
    )


def _path(text: str) -> Path:
    """Parser type of every input file: recorded absolute, hashed in the manifest."""
    return Path(text).resolve()


def _write_manifest(args, out: Path, tables, plots=(), seed=None) -> None:
    """Name every emitted file, the normalized argv, input hashes and seed.

    The argv is the command of ``args.parser`` followed by each of its options
    that holds a value, in parser order, so that replaying it reproduces every
    effective value.  ``--out`` and suppressed (replay-only) options are left
    out; the inputs are the values of the ``_path``-typed options.
    """
    argv = [args.parser.prog.split()[-1]]
    inputs = {}
    for action in args.parser._actions:
        value = getattr(args, action.dest, None)
        hidden = action.dest == "out" or action.help == argparse.SUPPRESS
        if value is None or value is False or hidden:
            continue
        for v in value if isinstance(value, list) else [value]:
            if action.type is _path:
                inputs[str(v)] = _sha256(v)
            # a set flag is recorded bare; str(float) is repr(float)
            argv += action.option_strings + ([] if v is True else [str(v)])
    manifest = {
        "tool": "subscale",
        "version": __version__,
        "command": argv[0],
        "argv": argv,
        "inputs": inputs,
        "tables": sorted(tables),
        "plots": sorted(plots),
        "seed": seed,
    }
    _write_json(out / "manifest.json", manifest)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_config(args) -> fit.FitConfig:
    from . import fit

    if args.config:
        data = json.loads(args.config.read_text(encoding="utf-8"))
        return fit.FitConfig.from_dict(data)
    return fit.FitConfig()


def _load_law(path: Path) -> laws.LawParams:
    from . import laws

    return laws.params_from_dict(json.loads(path.read_text(encoding="utf-8")))


def _runs_by_id(series: runs.RunSeries) -> dict[str, list[runs.TrainingRun]]:
    grouped: dict[str, list[runs.TrainingRun]] = {}
    for rec in series.records:
        grouped.setdefault(rec.run_id, []).append(rec)
    return grouped


# ---------------------------------------------------------------------------
# Plots
# ---------------------------------------------------------------------------


def _fit_plot(
    series: runs.RunSeries, params: laws.LawParams, family: str, title: str
) -> SvgPlot:
    """Observed losses (markers) and fitted curves (dashed), per run."""
    from . import fit, runs
    from .svg import SvgPlot

    plot = SvgPlot(
        title=title, x_label="training tokens", y_label="loss", x_log=True, y_log=True
    )
    for i, (run_id, records) in enumerate(sorted(_runs_by_id(series).items())):
        records = sorted(records, key=lambda r: r.tokens)
        xs = [r.tokens for r in records]
        ys = [r.loss for r in records]
        sub = runs.RunSeries.from_records(records)
        preds, _ = fit.predict(params, sub, family=family)
        color = None if i < 6 else "#999999"
        plot.add_series(f"{run_id} observed", xs, ys, markers=True, color=color)
        plot.add_series(f"{run_id} fitted", xs, list(preds), dashed=True, color=color)
    return plot


def _sweep_plot(law: laws.LawParams, budget: float, otr_values) -> SvgPlot:
    """Loss vs model size at fixed budgets, with the locus of the minima."""
    from . import alloc
    from .svg import SvgPlot

    plot = SvgPlot(
        title="loss vs model size at fixed compute",
        x_label="model size (parameters)",
        y_label="predicted loss",
        x_log=True,
        y_log=True,
    )
    locus_x, locus_y = [], []
    for factor in (0.1, 1.0, 10.0):
        b = budget * factor
        points = alloc.otr_sweep(law, b, otr_values)
        plot.add_series(
            f"budget {b:.2e}",
            [p.n for p in points],
            [p.predicted_loss for p in points],
        )
        try:
            plan = alloc.optimal_allocation(law, b)
            locus_x.append(plan.n_star)
            locus_y.append(plan.predicted_loss)
        except SubscaleError:
            pass
    if len(locus_x) >= 2:
        plot.add_series("optimal locus", locus_x, locus_y, markers=True, color="#000000")
    return plot


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_ingest(args) -> int:
    from . import runs

    if args.smooth_sigma is not None and args.smooth_window is None:
        raise ValueError("--smooth-sigma needs --smooth-window")
    out = _out_dir(args)
    series = runs.ingest(args.input, args.format)
    if args.smooth_window is not None:
        series = runs.gaussian_smooth(series, args.smooth_window, args.smooth_sigma)
    runs.write_csv(series, out / "runs.csv")
    _write_manifest(args, out, ["runs.csv"])
    n_runs = len(runs.run_ids(series))
    print(f"ingested {len(series)} records across {n_runs} runs -> {out / 'runs.csv'}")
    return 0


def cmd_fit(args) -> int:
    from . import fit, runs

    out = _out_dir(args)
    series = runs.ingest(args.input)
    config = _load_config(args)

    if len(args.family) > 1:
        table = fit.compare_laws(series, args.family, config, args.split_fraction)
        _write_fit_table(out / "comparison.csv", table.rows)
        _write_json(out / "comparison.json", table)
        best = next((r for r in table.rows if r.error is None), None)
        tables = ["comparison.csv", "comparison.json"]
        plots = []
        if best is not None:
            plot = _fit_plot(
                series, best.params, best.family, f"best family: {best.family}"
            )
            plot.write(out / "loss_tokens.svg")
            plots.append("loss_tokens.svg")
        _write_manifest(args, out, tables, plots)
        if best is None:
            print("all families failed", file=sys.stderr)
            return 2
        print(
            f"best by prediction MAPE: {best.family} "
            f"(fit {best.mape_fit:.3e}, pred {best.mape_pred:.3e})"
        )
        return 0

    family = args.family[0]
    if args.split_fraction == 1.0:  # exactly 1 means no holdout
        fit_split, holdout = series, None
    else:
        fit_split, holdout = runs.split_fit_holdout(series, args.split_fraction)
    result = fit.fit_law(fit_split, family, config)
    if holdout is not None:
        _, mape_pred = fit.predict(result.params, holdout, family=family)
        result = dataclasses.replace(result, mape_pred=mape_pred)

    _write_json(out / "fit_result.json", result)
    _write_fit_table(out / "fit_result.csv", [result])
    preds, _ = fit.predict(result.params, fit_split, family=family)
    _write_table(
        out / "residuals.csv",
        ["run_id", "model_size", "tokens", "loss", "predicted", "residual"],
        (
            [rec.run_id, rec.model_size, rec.tokens, rec.loss, pred, res]
            for rec, pred, res in zip(fit_split.records, preds, result.residuals)
        ),
    )
    plot = _fit_plot(series, result.params, family, f"{family} fit")
    plot.write(out / "loss_tokens.svg")
    _write_manifest(
        args,
        out,
        ["fit_result.json", "fit_result.csv", "residuals.csv"],
        ["loss_tokens.svg"],
    )
    pred_txt = "" if result.mape_pred is None else f", pred MAPE {result.mape_pred:.3e}"
    print(
        f"{family}: converged={result.converged}, fit MAPE {result.mape_fit:.3e}{pred_txt}"
    )
    return 0 if result.converged else 2


def cmd_predict(args) -> int:
    from . import fit, laws, runs

    out = _out_dir(args)
    series = runs.ingest(args.input)
    params = _load_law(args.params)
    args.family = args.family or laws.family_of(params)
    preds, mape_pred = fit.predict(params, series, family=args.family)
    _write_table(
        out / "predictions.csv",
        ["run_id", "model_size", "tokens", "loss", "predicted"],
        (
            [rec.run_id, rec.model_size, rec.tokens, rec.loss, pred]
            for rec, pred in zip(series.records, preds)
        ),
    )
    _write_json(out / "prediction.json", {"family": args.family, "mape_pred": mape_pred})
    _write_manifest(args, out, ["predictions.csv", "prediction.json"])
    print(f"prediction MAPE {mape_pred:.6e} over {len(series)} records")
    return 0


def cmd_compare(args) -> int:
    args.family = args.family or list(_DEFAULT_FAMILIES)
    return cmd_fit(args)


def _otr_grid(args) -> np.ndarray:
    import numpy as np

    return np.geomspace(args.otr_min, args.otr_max, args.otr_points)


def _write_sweep(out: Path, law: laws.LawParams, args) -> list[alloc.SweepPoint]:
    """Write sweep.csv and alloc_sweep.svg for the budget and OTR grid in args."""
    from . import alloc

    otr_values = _otr_grid(args)
    points = alloc.otr_sweep(law, args.budget, otr_values)
    _write_table(
        out / "sweep.csv",
        ["otr", "n", "d", "loss"],
        ([p.otr, p.n, p.d, p.predicted_loss] for p in points),
    )
    _sweep_plot(law, args.budget, otr_values).write(out / "alloc_sweep.svg")
    return points


def cmd_alloc(args) -> int:
    from . import alloc

    out = _out_dir(args)
    law = _load_law(args.law)
    plan = alloc.optimal_allocation(law, args.budget, (args.n_min, args.n_max))
    _write_json(out / "allocation.json", plan)
    tables = ["allocation.json"]
    plots = []
    if args.sweep:
        _write_sweep(out, law, args)
        tables.append("sweep.csv")
        plots.append("alloc_sweep.svg")
    _write_manifest(args, out, tables, plots)
    print(_json_text(plan))
    return 0


def cmd_sweep(args) -> int:
    out = _out_dir(args)
    points = _write_sweep(out, _load_law(args.law), args)
    _write_manifest(args, out, ["sweep.csv"], ["alloc_sweep.svg"])
    best = min(points, key=lambda p: p.predicted_loss)
    print(f"sweep minimum: otr {best.otr:.4g}, loss {best.predicted_loss:.6g}")
    return 0


def cmd_density(args) -> int:
    from . import density

    out = _out_dir(args)
    embeddings = density.load_embeddings(args.embeddings, normalize=args.normalize)
    clustering = density.kmeans(
        embeddings, args.k, seed=args.seed, max_iters=args.max_iters
    )
    report = density.dataset_density(embeddings, clustering)
    _write_json(out / "density_report.json", report.to_dict())
    _write_manifest(args, out, ["density_report.json"], seed=args.seed)
    print(
        f"k={report.k} n={report.n_total} dim={report.dim} "
        f"log_density={report.log_density:.6g}"
    )
    return 0


def cmd_select(args) -> int:
    from . import density

    out = _out_dir(args)
    if (args.keep_fraction is None) == (args.target_log_density is None):
        raise ValueError("give exactly one of --keep-fraction or --target-log-density")
    embeddings = density.load_embeddings(args.embeddings, normalize=args.normalize)
    clustering = density.kmeans(
        embeddings, args.k, seed=args.seed, max_iters=args.max_iters
    )
    before = density.dataset_density(embeddings, clustering)
    retained = density.select_low_density(
        embeddings,
        clustering,
        keep_fraction=args.keep_fraction,
        target_log_density=args.target_log_density,
    )
    kept_emb, kept_clustering = density.apply_selection(embeddings, clustering, retained)
    after = density.dataset_density(kept_emb, kept_clustering)
    (out / "retained_ids.txt").write_text(
        "\n".join(retained) + "\n", encoding="utf-8"
    )
    _write_json(
        out / "selection.json",
        {
            "n_before": embeddings.n_samples,
            "n_after": len(retained),
            "log_density_before": before.log_density,
            "log_density_after": after.log_density,
            "k_before": before.k,
            "k_after": after.k,
        },
    )
    _write_manifest(args, out, ["retained_ids.txt", "selection.json"], seed=args.seed)
    print(
        f"kept {len(retained)}/{embeddings.n_samples}; "
        f"log density {before.log_density:.6g} -> {after.log_density:.6g}"
    )
    return 0


def cmd_synth(args) -> int:
    from . import runs, synth

    out = _out_dir(args)
    spec = synth.load_spec(args.spec)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    args.seed = spec.seed
    if isinstance(spec, synth.CurveSpec):
        series = synth.gen_curves(spec)
        name = f"runs.{args.runs_format}"
        if args.runs_format == "csv":
            runs.write_csv(series, out / name)
        else:
            runs.write_jsonl(series, out / name)
        outputs = [name]
        print(f"generated {len(series)} records -> {out / name}")
    else:
        from . import density

        embeddings, labels = synth.gen_blobs(spec)
        name = "embeddings.csv" if args.emb_format == "csv" else "embeddings.emb"
        density.save_embeddings(out / name, embeddings)
        labels_name = "labels.csv"
        _write_table(out / labels_name, ["id", "label"], zip(embeddings.ids, labels))
        outputs = [name, labels_name]
        print(f"generated {embeddings.n_samples} embeddings -> {out / name}")
    _write_manifest(args, out, outputs, seed=args.seed)
    return 0


def cmd_report(args) -> int:
    manifest = json.loads(args.manifest.read_text(encoding="utf-8"))
    if not isinstance(manifest, dict):
        raise ValueError(f"manifest must be a JSON object, not a {type(manifest).__name__}")
    argv = manifest.get("argv")
    if not (isinstance(argv, list) and argv and all(isinstance(a, str) for a in argv)):
        raise ValueError("manifest 'argv' must be a non-empty list of strings")
    if argv[0] == "report":  # no command records a report; replaying one would recurse
        raise ValueError("manifest 'argv' cannot replay 'report'")
    inputs = manifest.get("inputs", {})
    if not isinstance(inputs, dict):
        raise ValueError("manifest 'inputs' must be a JSON object")
    for path_str, digest in inputs.items():
        path = Path(path_str)
        if not path.exists():
            raise ValueError(f"manifest input missing: {path}")
        if _sha256(path) != digest:
            raise ValueError(f"manifest input changed since recording: {path}")
    return main(argv + ["--out", str(args.out)])


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error is an input error (exit 1); 2 means an analytic failure
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_replay_only(p) -> None:
    # no effect: accepted so that manifests recorded with them still replay
    p.add_argument("--seed", type=int, default=None, help=argparse.SUPPRESS)
    p.add_argument("--threads", type=int, default=None, help=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser; each command's parser is also its manifest's argv schema."""
    parser = _Parser(
        prog="subscale",
        description="Scaling-law analysis for over-trained and high-density regimes",
    )
    parser.add_argument("--version", action="version", version=f"subscale {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("-o", "--out", required=True, help="output directory")
        p.set_defaults(handler=handler, parser=p)
        return p

    p = command("ingest", cmd_ingest, "validate a runs file, optionally smooth")
    p.add_argument("input", type=_path)
    p.add_argument("--format", choices=["csv", "jsonl"], default=None)
    p.add_argument("--smooth-window", type=int, default=None)
    p.add_argument("--smooth-sigma", type=float, default=None)

    fit_p = p = command("fit", cmd_fit, "fit one or more law families")
    p.add_argument("input", type=_path)
    p.add_argument(
        "--family",
        action="append",
        required=True,
        choices=_FAMILY_CHOICES,
        help="repeat for a comparison table",
    )
    p.add_argument("--config", type=_path, default=None, help="FitConfig JSON file")
    p.add_argument("--split-fraction", type=float, default=0.25)
    _add_replay_only(p)

    p = command("predict", cmd_predict, "evaluate a fitted law on a runs file")
    p.add_argument("input", type=_path)
    p.add_argument("--params", type=_path, required=True, help="law params JSON")
    p.add_argument("--family", choices=_FAMILY_CHOICES, default=None)

    p = command("compare", cmd_compare, "fit and rank several families")
    p.set_defaults(parser=fit_p)  # recorded and replayed as `fit`
    p.add_argument("input", type=_path)
    p.add_argument("--family", action="append", choices=_FAMILY_CHOICES)
    p.add_argument("--config", type=_path, default=None)
    p.add_argument("--split-fraction", type=float, default=0.25)
    _add_replay_only(p)

    p = command("alloc", cmd_alloc, "compute-optimal (N, D) for a budget")
    p.add_argument("--law", type=_path, required=True, help="law params JSON")
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--n-min", type=float, default=_DEFAULT_N_BRACKET[0])
    p.add_argument("--n-max", type=float, default=_DEFAULT_N_BRACKET[1])
    p.add_argument("--sweep", action="store_true")
    p.add_argument("--otr-min", type=float, default=1.0)
    p.add_argument("--otr-max", type=float, default=2000.0)
    p.add_argument("--otr-points", type=int, default=25)

    p = command("sweep", cmd_sweep, "loss along a fixed budget vs OTR")
    p.add_argument("--law", type=_path, required=True)
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--otr-min", type=float, default=1.0)
    p.add_argument("--otr-max", type=float, default=2000.0)
    p.add_argument("--otr-points", type=int, default=25)

    p = command("density", cmd_density, "cluster embeddings and report density")
    p.add_argument("embeddings", type=_path)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="k-means seed")
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("--normalize", action="store_true")

    p = command("select", cmd_select, "density-based subset selection")
    p.add_argument("embeddings", type=_path)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="k-means seed")
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("--keep-fraction", type=float, default=None)
    p.add_argument("--target-log-density", type=float, default=None)
    p.add_argument("--normalize", action="store_true")

    p = command("synth", cmd_synth, "generate fixtures from a spec JSON")
    p.add_argument("--spec", type=_path, required=True)
    p.add_argument("--seed", type=int, default=None, help="override the spec's seed")
    p.add_argument("--runs-format", choices=["csv", "jsonl"], default="csv")
    p.add_argument("--emb-format", choices=["emb", "csv"], default="emb")

    p = command("report", cmd_report, "replay a recorded manifest")
    p.add_argument("manifest", type=_path)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except SubscaleError as exc:
        print(f"subscale {args.command}: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"subscale {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
