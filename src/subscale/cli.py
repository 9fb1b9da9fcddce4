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
import gc
import hashlib
import json
import math
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
_MAX_OTR_POINTS = 10**6  # a sweep of 10**6 points takes about a minute (README)


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


def _seed(text: str) -> int:
    """Parser type of every --seed: SplitMix64's range, as a usage error naming --seed."""
    seed = int(text)
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError(f"must be in [0, 2^64), got {seed}")
    return seed


def _write_manifest(args, out: Path, names, seed=None) -> None:
    """Name every emitted file (``.svg`` ones as plots), the normalized argv,
    input hashes and seed.

    The argv is the command of ``args.parser`` followed by each of its options
    that holds a value, in parser order, so that replaying it reproduces every
    effective value.  ``--out`` is left out; the inputs are the values of the
    ``_path``-typed options.
    """
    argv = [args.parser.prog.split()[-1]]
    inputs = {}
    for action in args.parser._actions:
        value = getattr(args, action.dest, None)
        if value is None or value is False or action.dest == "out":
            continue
        for v in value if isinstance(value, list) else [value]:
            if action.type is _path:
                inputs[str(v)] = _sha256(v)
            # a set flag is recorded bare; str(float) is repr(float); a value
            # such as "-1e-05" shares its option's token, or argparse reads it
            # as an option
            if v is True:
                argv += action.option_strings
            elif str(v).startswith("-"):
                argv.append(f"{action.option_strings[-1]}={v}")
            else:
                argv += action.option_strings + [str(v)]
    manifest = {
        "tool": "subscale",
        "version": __version__,
        "command": argv[0],
        "argv": argv,
        "inputs": inputs,
        "tables": sorted(n for n in names if not n.endswith(".svg")),
        "plots": sorted(n for n in names if n.endswith(".svg")),
        "seed": seed,
    }
    _write_json(out / "manifest.json", manifest)


def _emit(args, outputs, seed=None) -> Path:
    """Commit a command's outputs and return the output directory.

    ``outputs`` maps each file name to a writer that takes the file's path.
    The directory is created, the writers run in order, and the manifest
    naming them is written last.  A handler computes and checks everything
    before it calls this, so a rejected input leaves no directory behind.
    """
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, write in outputs.items():
        write(out / name)
    _write_manifest(args, out, list(outputs), seed)
    return out


def _finite_positive(args, *options) -> None:
    """ValueError naming the first of ``options`` whose value is not finite and > 0."""
    for option in options:
        value = getattr(args, option[2:].replace("-", "_"))
        if not 0.0 < value < math.inf:
            raise ValueError(f"{option} must be finite and > 0, got {value!r}")


def _load_config(args) -> fit.FitConfig:
    from . import fit, jsondoc

    if args.config:
        return fit.FitConfig.from_dict(jsondoc.load(args.config, "fit config"))
    return fit.FitConfig()


def _load_law(path: Path) -> laws.LawParams:
    from . import jsondoc, laws

    return laws.params_from_dict(jsondoc.load(path, "law file"))


# ---------------------------------------------------------------------------
# Plots
# ---------------------------------------------------------------------------


def _fit_plot(
    series: runs.RunSeries, params: laws.LawParams, family: str, title: str
) -> SvgPlot:
    """Observed losses (markers) and fitted curves (dashed), per run."""
    from . import fit, runs
    from .svg import SvgPlot

    plot = SvgPlot(title=title, x_label="training tokens", y_label="loss")
    preds, _ = fit.predict(params, series, family=family)
    # a validated series holds each run's records in token order
    for i, (run_id, idx) in enumerate(sorted(runs.indices_by_run(series).items())):
        xs = [series.records[j].tokens for j in idx]
        ys = [series.records[j].loss for j in idx]
        color = None if i < 6 else "#999999"
        plot.add_series(f"{run_id} observed", xs, ys, markers=True, color=color)
        plot.add_series(f"{run_id} fitted", xs, list(preds[idx]), dashed=True, color=color)
    return plot


def _sweep_plot(law: laws.LawParams, budget, otr_values, points, plan, n_bracket) -> SvgPlot:
    """Loss vs model size at 0.1, 1 and 10 times the budget, with the locus of the
    minima; ``points`` and ``plan`` (None if not computed) are the budget's own."""
    from . import alloc
    from .svg import SvgPlot

    plot = SvgPlot(
        title="loss vs model size at fixed compute",
        x_label="model size (parameters)",
        y_label="predicted loss",
    )
    locus_x, locus_y = [], []
    for factor, sweep, best in ((0.1, None, None), (1.0, points, plan), (10.0, None, None)):
        b = budget * factor
        if sweep is None:
            if not 0.0 < b < math.inf:
                raise ValueError(
                    f"--budget {budget!r} gives the sweep plot's {factor:g}x curve "
                    f"a budget of {b!r}, which is not finite and > 0"
                )
            sweep = alloc.otr_sweep(law, b, otr_values)
        plot.add_series(
            f"budget {b:.2e}",
            [p.n for p in sweep],
            [p.predicted_loss for p in sweep],
        )
        if best is None:
            if not isinstance(law, alloc.ALLOCATABLE_LAWS):
                continue  # a power law has no compute-optimal split: no locus
            try:
                best = alloc.optimal_allocation(law, b, n_bracket)
            except SubscaleError:
                continue
        locus_x.append(best.n_star)
        locus_y.append(best.predicted_loss)
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
    series = runs.ingest(args.input, args.format)
    if args.smooth_window is not None:
        series = runs.gaussian_smooth(series, args.smooth_window, args.smooth_sigma)
    out = _emit(args, {"runs.csv": lambda p: runs.write_csv(series, p)})
    n_runs = len(runs.indices_by_run(series))
    print(f"ingested {len(series)} records across {n_runs} runs -> {out / 'runs.csv'}")
    return 0


def cmd_fit(args) -> int:
    from . import fit, runs

    args.family = args.family or list(_DEFAULT_FAMILIES)
    series = runs.ingest(args.input)
    config = _load_config(args)

    # the one split of fit and compare; 1 fits one family on all records, no holdout
    fraction, several = args.split_fraction, len(args.family) > 1
    if not (0.0 < fraction < 1.0 or (fraction == 1.0 and not several)):
        rule = "(0, 1) to rank families, as a ranking needs a holdout" if several else "(0, 1]"
        raise ValueError(f"--split-fraction must be in {rule}, got {fraction!r}")
    if fraction == 1.0:
        fit_split, holdout = series, None
    else:
        fit_split, holdout = runs.split_fit_holdout(series, fraction)

    if several:
        rows = fit.compare_laws(fit_split, holdout, args.family, config)
        best = next((r for r in rows if r.error is None), None)
        table = {"rows": rows, "split_fraction": fraction}
        outputs = {
            "comparison.csv": lambda p: _write_fit_table(p, rows),
            "comparison.json": lambda p: _write_json(p, table),
        }
        if best is not None:
            plot = _fit_plot(series, best.params, best.family, f"best family: {best.family}")
            outputs["loss_tokens.svg"] = plot.write
        _emit(args, outputs)
        if best is None:
            print("all families failed", file=sys.stderr)
            return 2
        print(
            f"best by prediction MAPE: {best.family} "
            f"(fit {best.mape_fit:.3e}, pred {best.mape_pred:.3e})"
        )
        return 0

    family = args.family[0]
    result = fit.fit_law(fit_split, family, config)
    if holdout is not None:
        _, mape_pred = fit.predict(result.params, holdout, family=family)
        result = dataclasses.replace(result, mape_pred=mape_pred)

    preds, _ = fit.predict(result.params, fit_split, family=family)
    residuals = (
        [rec.run_id, rec.model_size, rec.tokens, rec.loss, pred, res]
        for rec, pred, res in zip(fit_split.records, preds, result.residuals)
    )
    header = ["run_id", "model_size", "tokens", "loss", "predicted", "residual"]
    outputs = {
        "fit_result.json": lambda p: _write_json(p, result),
        "fit_result.csv": lambda p: _write_fit_table(p, [result]),
        "residuals.csv": lambda p: _write_table(p, header, residuals),
        "loss_tokens.svg": _fit_plot(series, result.params, family, f"{family} fit").write,
    }
    _emit(args, outputs)
    pred_txt = "" if result.mape_pred is None else f", pred MAPE {result.mape_pred:.3e}"
    print(
        f"{family}: converged={result.converged}, fit MAPE {result.mape_fit:.3e}{pred_txt}"
    )
    return 0 if result.converged else 2


def cmd_predict(args) -> int:
    from . import fit, laws, runs

    series = runs.ingest(args.input)
    params = _load_law(args.params)
    args.family = args.family or laws.family_of(params)
    preds, mape_pred = fit.predict(params, series, family=args.family)
    rows = (
        [rec.run_id, rec.model_size, rec.tokens, rec.loss, pred]
        for rec, pred in zip(series.records, preds)
    )
    header = ["run_id", "model_size", "tokens", "loss", "predicted"]
    outputs = {
        "predictions.csv": lambda p: _write_table(p, header, rows),
        "prediction.json": lambda p: _write_json(
            p, {"family": args.family, "mape_pred": mape_pred}
        ),
    }
    _emit(args, outputs)
    print(f"prediction MAPE {mape_pred:.6e} over {len(series)} records")
    return 0


def _otr_grid(args) -> np.ndarray:
    import numpy as np

    _finite_positive(args, "--otr-min", "--otr-max")
    if args.otr_points < 1:
        raise ValueError(f"--otr-points must be >= 1, got {args.otr_points}")
    if args.otr_points > _MAX_OTR_POINTS:
        raise ValueError(f"--otr-points must be <= {_MAX_OTR_POINTS}, got {args.otr_points}")
    return np.geomspace(args.otr_min, args.otr_max, args.otr_points)


def _sweep_outputs(law: laws.LawParams, args, plan=None, n_bracket=_DEFAULT_N_BRACKET):
    """sweep.csv and alloc_sweep.svg for the budget and OTR grid in args, as outputs
    for ``_emit``, and the sweep; ``plan`` is the budget's allocation over ``n_bracket``."""
    from . import alloc

    otr_values = _otr_grid(args)
    points = alloc.otr_sweep(law, args.budget, otr_values)
    rows = ([p.otr, p.n, p.d, p.predicted_loss] for p in points)
    plot = _sweep_plot(law, args.budget, otr_values, points, plan, n_bracket)
    outputs = {
        "sweep.csv": lambda p: _write_table(p, ["otr", "n", "d", "loss"], rows),
        "alloc_sweep.svg": plot.write,
    }
    return outputs, points


def cmd_alloc(args) -> int:
    from . import alloc

    law = _load_law(args.law)
    _finite_positive(args, "--n-min", "--n-max")
    _otr_grid(args)  # checked without --sweep too, since the manifest records the grid
    n_bracket = (args.n_min, args.n_max)
    plan = alloc.optimal_allocation(law, args.budget, n_bracket)
    outputs = {"allocation.json": lambda p: _write_json(p, plan)}
    if args.sweep:
        outputs.update(_sweep_outputs(law, args, plan, n_bracket)[0])
    _emit(args, outputs)
    print(_json_text(plan))
    return 0


def cmd_sweep(args) -> int:
    outputs, points = _sweep_outputs(_load_law(args.law), args)
    _emit(args, outputs)
    best = min(points, key=lambda p: p.predicted_loss)
    print(f"sweep minimum: otr {best.otr:.4g}, loss {best.predicted_loss:.6g}")
    return 0


def _clustered(args):
    """The embeddings of a `density` or `select` command, and their k-means."""
    from . import density

    embeddings = density.load_embeddings(args.embeddings, normalize=args.normalize)
    return embeddings, density.kmeans(
        embeddings, args.k, seed=args.seed, max_iters=args.max_iters
    )


def cmd_density(args) -> int:
    from . import density

    embeddings, clustering = _clustered(args)
    report = density.dataset_density(embeddings, clustering)
    # plain fields: a dataclass would send _json_default to import laws
    fields = dataclasses.asdict(report)
    _emit(args, {"density_report.json": lambda p: _write_json(p, fields)}, seed=args.seed)
    print(
        f"k={report.k} n={report.n_total} dim={report.dim} "
        f"log_density={report.log_density:.6g}"
    )
    return 0


def cmd_select(args) -> int:
    from . import density

    if (args.keep_fraction is None) == (args.target_log_density is None):
        raise ValueError("give exactly one of --keep-fraction or --target-log-density")
    embeddings, clustering = _clustered(args)
    before = density.dataset_density(embeddings, clustering)
    rows = density.select_low_density(
        embeddings,
        clustering,
        keep_fraction=args.keep_fraction,
        target_log_density=args.target_log_density,
    )
    kept, kept_clustering = density.apply_selection(embeddings, clustering, rows)
    after = density.dataset_density(kept, kept_clustering)
    selection = {
        "n_before": embeddings.n_samples,
        "n_after": kept.n_samples,
        "log_density_before": before.log_density,
        "log_density_after": after.log_density,
        "k_before": before.k,
        "k_after": after.k,
    }
    outputs = {
        "retained_ids.txt": lambda p: p.write_text("\n".join(kept.ids) + "\n", encoding="utf-8"),
        "selection.json": lambda p: _write_json(p, selection),
    }
    _emit(args, outputs, seed=args.seed)
    print(
        f"kept {kept.n_samples}/{embeddings.n_samples}; "
        f"log density {before.log_density:.6g} -> {after.log_density:.6g}"
    )
    return 0


def cmd_synth(args) -> int:
    from . import runs, synth

    spec = synth.load_spec(args.spec)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    args.seed = spec.seed
    if isinstance(spec, synth.CurveSpec):
        series = synth.gen_curves(spec)
        write = runs.write_csv if args.runs_format == "csv" else runs.write_jsonl
        outputs = {f"runs.{args.runs_format}": lambda p: write(series, p)}
        generated = f"{len(series)} records"
    else:
        from . import density

        embeddings, labels = synth.gen_blobs(spec)
        name = "embeddings.csv" if args.emb_format == "csv" else "embeddings.emb"
        outputs = {
            name: lambda p: density.save_embeddings(p, embeddings),
            "labels.csv": lambda p: _write_table(p, ["id", "label"], zip(embeddings.ids, labels)),
        }
        generated = f"{embeddings.n_samples} embeddings"
    out = _emit(args, outputs, seed=args.seed)
    print(f"generated {generated} -> {out / next(iter(outputs))}")
    return 0


def cmd_report(args) -> int:
    from . import jsondoc

    manifest = jsondoc.obj(jsondoc.load(args.manifest, "manifest"), "manifest")
    argv = manifest.get("argv")
    if not (isinstance(argv, list) and argv and all(isinstance(a, str) for a in argv)):
        raise ValueError("manifest 'argv' must be a non-empty list of strings")
    # only what a command records replays: a report would recurse, and
    # --version or --help would print and write nothing
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    if argv[0] not in set(sub.choices) - {"report"}:
        raise ValueError(
            f"manifest 'argv' cannot replay {argv[0]!r}: it does not start with a command "
            "that writes a manifest"
        )
    if argv[0] == "fit":
        # older manifests record --seed and --threads, which had no effect on a
        # fit and which the parser no longer takes: each goes with its value
        flags = {i for i, a in enumerate(argv) if a in ("--seed", "--threads")}
        argv = [a for i, a in enumerate(argv) if not {i, i - 1} & flags]
    for arg in argv:
        option = arg.split("=", 1)[0]
        # argparse reads -h with flags after it, and any prefix of --help, as help
        if arg.startswith("-h") or (len(option) > 2 and "--help".startswith(option)):
            raise ValueError(f"manifest 'argv' cannot replay {arg!r}: help writes no outputs")
    inputs = jsondoc.obj(manifest.get("inputs", {}), "manifest 'inputs'")
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


def _add_sweep_options(p, alloc: bool) -> None:
    """The options of `sweep`; `alloc` adds its bracket and --sweep before the grid."""
    p.add_argument("--law", type=_path, required=True, help="law params JSON")
    p.add_argument("--budget", type=float, required=True)
    if alloc:
        p.add_argument("--n-min", type=float, default=_DEFAULT_N_BRACKET[0])
        p.add_argument("--n-max", type=float, default=_DEFAULT_N_BRACKET[1])
        p.add_argument("--sweep", action="store_true")
    p.add_argument("--otr-min", type=float, default=1.0)
    p.add_argument("--otr-max", type=float, default=2000.0)
    p.add_argument("--otr-points", type=int, default=25)


def _add_density_options(p, select: bool) -> None:
    """The options of `density`; `select` adds its targets before --normalize."""
    p.add_argument("embeddings", type=_path)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=_seed, default=0, help="k-means seed")
    p.add_argument("--max-iters", type=int, default=100)
    if select:
        p.add_argument("--keep-fraction", type=float, default=None)
        p.add_argument("--target-log-density", type=float, default=None)
    p.add_argument("--normalize", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser; each command's parser is also its manifest's argv schema."""
    parser = _Parser(
        prog="subscale",
        description="Scaling-law analysis for over-trained and high-density regimes",
    )
    parser.add_argument("--version", action="version", version=f"subscale {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, aliases=()):
        p = sub.add_parser(name, help=help, aliases=aliases)
        p.add_argument("-o", "--out", required=True, help="output directory")
        p.set_defaults(handler=handler, parser=p)
        return p

    p = command("ingest", cmd_ingest, "validate a runs file, optionally smooth")
    p.add_argument("input", type=_path)
    p.add_argument("--format", choices=["csv", "jsonl"], default=None)
    p.add_argument("--smooth-window", type=int, default=None)
    p.add_argument("--smooth-sigma", type=float, default=None)

    p = command("fit", cmd_fit, "fit one law family, or rank several", aliases=["compare"])
    p.add_argument("input", type=_path)
    p.add_argument(
        "--family",
        action="append",
        choices=_FAMILY_CHOICES,
        help="repeat to rank several; default: power, chinchilla and suboptimal",
    )
    p.add_argument("--config", type=_path, default=None, help="FitConfig JSON file")
    p.add_argument("--split-fraction", type=float, default=0.25)

    p = command("predict", cmd_predict, "evaluate a fitted law on a runs file")
    p.add_argument("input", type=_path)
    p.add_argument("--params", type=_path, required=True, help="law params JSON")
    p.add_argument("--family", choices=_FAMILY_CHOICES, default=None)

    p = command("alloc", cmd_alloc, "compute-optimal (N, D) for a budget")
    _add_sweep_options(p, alloc=True)

    p = command("sweep", cmd_sweep, "loss along a fixed budget vs OTR")
    _add_sweep_options(p, alloc=False)

    p = command("density", cmd_density, "cluster embeddings and report density")
    _add_density_options(p, select=False)

    p = command("select", cmd_select, "density-based subset selection")
    _add_density_options(p, select=True)

    p = command("synth", cmd_synth, "generate fixtures from a spec JSON")
    p.add_argument("--spec", type=_path, required=True)
    p.add_argument("--seed", type=_seed, default=None, help="override the spec's seed")
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
    except (ValueError, OSError) as exc:
        print(f"subscale {args.command}: {exc}", file=sys.stderr)
        return 1


def run() -> int:
    """Process entry of ``python -m subscale.cli`` and the ``subscale`` script.

    Runs ``main`` on ``sys.argv``, then moves every object left alive into
    the permanent generation, so the collections at interpreter exit skip the
    objects that the imports made.  Atexit handlers, stream flushes and
    module teardown still run, but the collector no longer finalizes a
    frozen cycle, so every command closes its files before ``main`` returns.
    Only ``main`` is for calling in process.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
