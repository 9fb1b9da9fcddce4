"""Benchmark of the subscale CLI: end-to-end runs and a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fit-ladder --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke               # self-test at tiny sizes
    python3 perfbench/run.py --record-reference 0-31   # rewrite reference.json

``--trace 0`` runs the workload as a closed loop with one client: each CLI
command is a fresh ``python -m subscale.cli`` child process, one after
another, for ``--seconds`` seconds, and the end-to-end metrics are printed.
``--trace 1`` runs the same iterations in this process, alternating untraced
and traced ones, and prints the per-layer metrics.  Either way the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; details go to
``.bench_work/results/``.  See README.md beside this file.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads, here and in every child process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("SUBSCALE_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed, close, sha256  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH_DIR / "reference.json"
SETUP_REPEATS = 5
# Each run cycles through this many seeded datasets, so its median covers
# the spread of work (LM path lengths, k-means iterations) between inputs.
DATASETS = {"full": 12, "smoke": 2}
IMPORT_REPEATS = 3
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
CHILD_ENV["PYTHONPATH"] = str(SRC)
SUBSCALE = [sys.executable, "-m", "subscale.cli"]


class CommandFailed(Exception):
    def __init__(self, label: str, message: str):
        super().__init__(f"{label}: {message}")
        self.label = label


# ---------------------------------------------------------------------------
# Running one command
# ---------------------------------------------------------------------------


class ChildRunner:
    """Runs each command as a fresh child process and records its cost."""

    def __init__(self, out: Path):
        self.out = out
        self.records: list[dict] = []

    def __call__(self, label: str, argv: list) -> Path:
        out = self.out / label
        start = time.perf_counter()
        proc = subprocess.Popen(
            [*SUBSCALE, *argv, "-o", str(out)], cwd=ROOT, env=CHILD_ENV,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        stderr = proc.stderr.read()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        # reaped here for its rusage; tell Popen so it does not wait again
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        self.records.append({
            "label": label, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime, "rss_mb": usage.ru_maxrss / 1024.0,
        })
        if code != 0 or not (out / "manifest.json").is_file():
            raise CommandFailed(label, f"exit {code}: {stderr.decode()[-500:]}")
        return out


class InProcessRunner:
    """Runs each command through ``subscale.cli.main`` in this process."""

    def __init__(self, cli, out: Path):
        self.cli = cli
        self.out = out

    def __call__(self, label: str, argv: list) -> Path:
        out = self.out / label
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main([*argv, "-o", str(out)])
        if code != 0 or not (out / "manifest.json").is_file():
            raise CommandFailed(label, f"exit {code}")
        return out


def table_digests(out: Path) -> dict:
    """{label: {table: sha256}} for every command output under ``out``."""
    digests = {}
    for manifest in sorted(out.glob("*/manifest.json")):
        tables = json.loads(manifest.read_text(encoding="utf-8"))["tables"]
        digests[manifest.parent.name] = {t: sha256(manifest.parent / t) for t in tables}
    return digests


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# Set-up and output checks
# ---------------------------------------------------------------------------


def setup(workload, seed: int, scale: str, work: Path) -> tuple[list, float]:
    """Fixtures of every dataset plus one child that imports the CLI.

    Repeated SETUP_REPEATS times; returns the last fixtures and the median time.
    """
    size = workload.sizes[scale]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        root = fresh_dir(work / "fixtures")
        fixtures = [workload.make_fixtures(seed, j, fresh_dir(root / f"ds{j}"), size)
                    for j in range(DATASETS[scale])]
        subprocess.run([*SUBSCALE, "--version"], cwd=ROOT, env=CHILD_ENV, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return fixtures, statistics.median(times)


def load_reference(scale: str, workload, seed: int) -> dict | None:
    if not REFERENCE.is_file():
        return None
    data = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return data.get(scale, {}).get(workload.name, {}).get(str(seed))


class Outputs:
    """Where each dataset's iterations write; repeats must match the first."""

    def __init__(self, root: Path):
        self.root = root
        self.first: dict[int, Path] = {}

    def target(self, dataset: int) -> Path:
        name = f"ds{dataset}" if dataset not in self.first else "repeat"
        return fresh_dir(self.root / name)

    def settle(self, dataset: int, out: Path) -> list[str]:
        """Labels whose tables differ from the dataset's first outputs."""
        if dataset not in self.first:
            self.first[dataset] = out
            return []
        want, got = table_digests(self.first[dataset]), table_digests(out)
        return sorted(label for label in set(want) | set(got)
                      if want.get(label) != got.get(label))


def check_outputs(workload, fixtures: dict, out: Path, work: Path,
                  reference: dict | None, replay: bool) -> dict:
    """{label: [failure messages]} for the commands of one iteration in ``out``.

    With ``replay``, each manifest is replayed with ``subscale report`` and its
    tables compared byte for byte.  Then the workload's own checks run, and
    the values recorded in reference.json, when given, are compared.
    """
    failures: dict[str, list[str]] = {}
    if replay:
        replay_dir = fresh_dir(work / "replay")
        for label, tables in table_digests(out).items():
            try:
                ChildRunner(replay_dir)(label, ["report", str(out / label / "manifest.json")])
            except CommandFailed as exc:
                failures.setdefault(label, []).append(f"replay failed: {exc}")
                continue
            for table, digest in tables.items():
                if sha256(replay_dir / label / table) != digest:
                    failures.setdefault(label, []).append(f"replayed {table} differs")
    for label, check in workload.checks.items():
        try:
            check(fixtures, out)
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            failures.setdefault(label, []).append(str(exc))
    if reference is not None:
        observed = workload.observe(fixtures, out)
        for key in sorted(set(reference) | set(observed)):
            want, got = reference.get(key), observed.get(key)
            if isinstance(want, float) and isinstance(got, (int, float)):
                same = close(got, want, workload.value_rtol, workload.value_rtol * 1e-3)
            else:
                same = got == want
            if not same:
                failures.setdefault(key.split("/")[0], []).append(
                    f"{key}: got {got!r}, reference {want!r}")
    return failures


def check_datasets(workload, fixtures: list, outputs: Outputs, work: Path,
                   reference: dict | None, log, corrupt=None) -> tuple[int, list]:
    """Check the first outputs of every dataset that ran.

    Dataset 0 is also replayed and compared with the reference values of
    this seed.  ``corrupt(out)``, used by the self-test, damages dataset 0's
    outputs first.  Returns the number of failed commands and the observed
    values of each dataset that passed.
    """
    if corrupt is not None and 0 in outputs.first:
        corrupt(outputs.first[0])
    n_failed, observed = 0, []
    for j, out in sorted(outputs.first.items()):
        failures = check_outputs(workload, fixtures[j], out, work,
                                 reference if j == 0 else None, replay=j == 0)
        for label, messages in failures.items():
            for message in messages:
                log(f"FAILED dataset {j} {label}: {message}")
        n_failed += len(failures)
        if not failures:
            observed.append(workload.observe(fixtures[j], out))
    return n_failed, observed


# ---------------------------------------------------------------------------
# End-to-end run (--trace 0)
# ---------------------------------------------------------------------------


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest rank with TAIL_BEYOND samples above it.

    With fewer than TAIL_BEYOND + 1 samples no such rank exists; the maximum
    is reported with percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def run_end_to_end(workload, seed, seconds, scale, work, log, corrupt=None) -> dict:
    fixtures, setup_s = setup(workload, seed, scale, work)
    outputs = Outputs(work / "out")
    iterations = []
    attempted = n_failed = 0

    def iterate(j: int) -> list[dict] | None:
        """One iteration on dataset j; its command records, or None if it failed."""
        nonlocal attempted, n_failed
        out = outputs.target(j)
        runner = ChildRunner(out)
        try:
            workload.iteration(fixtures[j], runner)
            bad = outputs.settle(j, out)
        except CommandFailed as exc:
            bad = [exc.label]
            log(f"FAILED dataset {j} {exc}")
        attempted += len(runner.records)
        n_failed += len(bad)
        return None if bad else runner.records

    start = time.perf_counter()
    while True:
        j = len(iterations) % len(fixtures)
        records = iterate(j)
        if records is None:
            break
        iterations.append({
            "dataset": j,
            "wall_s": sum(r["wall_s"] for r in records),
            "cpu_s": sum(r["cpu_s"] for r in records),
            "peak_rss_mb": max(r["rss_mb"] for r in records),
            "commands": records,
        })
        typical = statistics.median(i["wall_s"] for i in iterations)
        if time.perf_counter() - start + typical > seconds:
            break
    # quality_err covers every dataset, so run the ones the loop did not reach
    for j in range(len(fixtures)):
        if j not in outputs.first and n_failed == 0:
            iterate(j)

    reference = load_reference(scale, workload, seed)
    if reference is None:
        log(f"no reference values recorded for {scale} seed {seed}: "
            "replay and recomputation checks only")
    failed, observed = check_datasets(workload, fixtures, outputs, work, reference,
                                      log, corrupt)
    n_failed += failed
    metrics, extra = {}, {"iterations": len(iterations)}
    if iterations:
        walls = [i["wall_s"] for i in iterations]
        pct, tail = tail_percentile(walls)
        metrics = {
            "wall_s_p50": (statistics.median(walls), "s"),
            "wall_s_tail": (tail, "s"),
            "cpu_s_p50": (statistics.median(i["cpu_s"] for i in iterations), "s"),
            "peak_rss_mb": (statistics.median(i["peak_rss_mb"] for i in iterations), "MB"),
            "setup_s": (setup_s, "s"),
        }
        extra["wall_s_tail_percentile"] = pct
    if observed:  # over the datasets whose outputs passed their checks
        metrics["quality_err"] = (
            statistics.mean(workload.quality(o) for o in observed), "ratio")
        holdout = [v for o in observed for k, v in o.items() if k.endswith("/pred_mape")]
        if holdout:
            extra["pred_mape"] = statistics.mean(holdout)
    return {"attempted": attempted, "failed": n_failed, "metrics": metrics,
            "extra": extra, "samples": iterations}


# ---------------------------------------------------------------------------
# Traced per-layer run (--trace 1)
# ---------------------------------------------------------------------------


def import_subscale() -> dict:
    sys.path.insert(0, str(SRC))
    import importlib

    names = ("cli", "runs", "fit", "laws", "alloc", "density", "synth", "rng", "svg")
    modules = {n: importlib.import_module(f"subscale.{n}") for n in names}
    if Path(modules["cli"].__file__).resolve().parent != SRC / "subscale":
        raise SystemExit(f"subscale imported from {modules['cli'].__file__}, not {SRC}")
    return modules


def cli_import_seconds() -> float:
    code = ("import time; t = time.perf_counter(); import subscale.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=CHILD_ENV,
                              check=True, capture_output=True, text=True)
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


def layer_metrics(tracer: Tracer, n_traced: int) -> tuple[dict, dict]:
    """Per-layer metrics per traced iteration, and span calls by layer."""
    self_s, calls = tracer.self_times()
    counts = tracer.counts
    per = 1.0 / n_traced

    def s(name):
        return (self_s.get(name, 0.0) * per, "s")

    def n(value, unit="count"):
        return (value * per, unit)

    m = {
        "cli.self_s": s("cli.main"),
        "cli.bytes_written": n(counts["cli.bytes_written"], "bytes"),
        "runs.ingest_records": n(counts["runs.ingest_records"]),
        "fit.starts": n(counts["fit.starts"]),
        "fit.iterations": n(counts["fit.iterations"]),
        "fit.converged_ratio": (
            counts["fit.converged"] / counts["fit.fits"] if counts["fit.fits"] else 0.0,
            "ratio"),
        "fit.lstsq_calls": n(calls.get("fit.lstsq", 0)),
        "laws.eval_calls": n(calls.get("laws.eval", 0)),
        "laws.grad_calls": n(calls.get("laws.grad", 0)),
        "rng.calls": n(calls.get("rng", 0)),
        "rng.s": s("rng"),
        "density.removed": n(counts["density.removed"]),
    }
    for family in ("power", "chinchilla", "suboptimal"):
        m[f"fit.fit_law_s.{family}"] = s(f"fit.fit_law.{family}")
    for name in ("runs.ingest", "runs.gaussian_smooth", "runs.split_fit_holdout",
                 "runs.write_csv", "fit.compare_laws", "fit.predict", "fit.lstsq",
                 "laws.eval", "laws.grad", "alloc.optimal_allocation", "alloc.otr_sweep",
                 "synth.gen_curves", "density.load_embeddings", "density.kmeans",
                 "density.dataset_density", "density.select_low_density",
                 "density.apply_selection", "svg.write"):
        m[f"{name}_s"] = s(name)
    by_layer: dict[str, int] = {}
    for name, count in calls.items():
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0) + count
    return m, by_layer


def run_traced(workload, seed, seconds, scale, work, log) -> dict:
    fixtures, _ = setup(workload, seed, scale, work)
    modules = import_subscale()
    cli = modules["cli"]
    outputs = Outputs(work / "out")
    tracer = Tracer(modules)
    plain, traced = [], []
    attempted = n_failed = 0

    def iterate(j: int, trace: bool) -> float | None:
        """Seconds one in-process iteration on dataset j took, None if it failed."""
        nonlocal attempted, n_failed
        out = outputs.target(j)
        attempted += len(workload.checks)
        if trace:
            tracer.install()
        start = time.perf_counter()
        try:
            workload.iteration(fixtures[j], InProcessRunner(cli, out))
        except CommandFailed as exc:
            n_failed += 1
            log(f"FAILED dataset {j} {exc}")
            return None
        finally:
            elapsed = time.perf_counter() - start
            tracer.remove()
        bad = outputs.settle(j, out)  # tracing must not change a byte
        n_failed += len(bad)
        return None if bad else elapsed

    iterate(0, trace=False)  # warm-up: imports, caches, first outputs of dataset 0
    start = time.perf_counter()
    while n_failed == 0:
        j = len(traced) % len(fixtures)
        # alternate which of the pair runs first, so neither gets the warm cache
        if len(traced) % 2:
            untraced_s, traced_s = iterate(j, trace=False), iterate(j, trace=True)
        else:
            traced_s, untraced_s = iterate(j, trace=True), iterate(j, trace=False)
        if untraced_s is None or traced_s is None:
            break
        plain.append(untraced_s)
        traced.append(traced_s)
        if len(traced) == 1:
            first_spans = len(tracer.spans)
        if time.perf_counter() - start + untraced_s + traced_s > seconds:
            break

    failed, _ = check_datasets(workload, fixtures, outputs, work,
                               load_reference(scale, workload, seed), log)
    n_failed += failed
    metrics, extra = {}, {"traced_iterations": len(traced)}
    if traced:
        metrics, by_layer = layer_metrics(tracer, len(traced))
        metrics["cli.import_s"] = (cli_import_seconds(), "s")
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
        extra["calls_by_layer"] = by_layer
        for layer in workload.idle_layers:
            if by_layer.get(layer, 0):
                n_failed += 1
                log(f"FAILED prediction: {by_layer[layer]} calls into idle layer {layer}")
        # one iteration's spans (about 1 MB) are kept; all feed the metrics
        spans = WORK / "results" / f"{work.name}-spans.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(spans, first_spans)
        extra["spans"] = str(spans.relative_to(ROOT))
    return {"attempted": attempted, "failed": n_failed, "metrics": metrics,
            "extra": extra, "samples": {"untraced_s": plain, "traced_s": traced}}


# ---------------------------------------------------------------------------
# Environment, output and entry point
# ---------------------------------------------------------------------------


def environment() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "caches": {},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {v: os.environ.get(v) for v in (*THREAD_VARS, "SUBSCALE_THREADS")},
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def steal_seconds() -> float | None:
    """CPU time the hypervisor gave to other guests, summed over CPUs."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def emit(workload_name, seed, trace, result, log) -> dict:
    """Print metrics by name with units, save details, return the result line."""
    metrics = result["metrics"]
    for name, (value, unit) in metrics.items():
        log(f"{name} = {value:.6g} {unit}")
    extra = result["extra"]
    if "wall_s_tail_percentile" in extra:
        log(f"wall_s_tail is p{extra['wall_s_tail_percentile']:.1f} "
            f"of {extra['iterations']} iterations")
    log(f"fail_ratio = {result['failed']}/{result['attempted']} commands")
    if "pred_mape" in extra:
        log(f"pred_mape = {extra['pred_mape']:.6g} ratio (holdout, mean over datasets)")
    if "steal_s" in extra:
        log(f"steal_s = {extra['steal_s']:.3g} s (CPU time taken by other guests)")
    line = {
        "correct": result["failed"] == 0 and bool(metrics),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    detail = dict(line, workload=workload_name, seed=seed, trace=trace,
                  environment=environment(), extra=extra, samples=result["samples"])
    path = results / f"{workload_name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    return line


def run_one(name, seed, seconds, trace, scale="full", corrupt=None, quiet=False) -> dict:
    def log(message):
        if not quiet:
            print(message, flush=True)

    workload = WORKLOADS[name]
    work = fresh_dir(WORK / f"{name}-seed{seed}-trace{trace}")
    steal = steal_seconds()
    try:
        if trace:
            result = run_traced(workload, seed, seconds, scale, work, log)
        else:
            result = run_end_to_end(workload, seed, seconds, scale, work, log, corrupt)
        if steal is not None:
            result["extra"]["steal_s"] = steal_seconds() - steal
        return emit(name, seed, trace, result, log)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record_reference(seeds: list[int]) -> None:
    """Record dataset 0's observed values per workload and seed at this commit."""
    data: dict = {}
    for scale, scale_seeds in (("full", seeds), ("smoke", [0])):
        for name, workload in WORKLOADS.items():
            for seed in scale_seeds:
                work = fresh_dir(WORK / f"record-{name}-{seed}")
                fixtures = [workload.make_fixtures(seed, 0, fresh_dir(work / "ds0"),
                                                   workload.sizes[scale])]
                outputs = Outputs(work / "out")
                out = outputs.target(0)
                workload.iteration(fixtures[0], ChildRunner(out))
                outputs.settle(0, out)
                failed, observed = check_datasets(workload, fixtures, outputs, work, None,
                                                  print)
                if failed:
                    raise SystemExit(f"{name} seed {seed}: outputs failed their checks")
                data.setdefault(scale, {}).setdefault(name, {})[str(seed)] = observed[0]
                shutil.rmtree(work)
                print(f"recorded {scale} {name} seed {seed}", flush=True)
    REFERENCE.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the self-test")
    parser.add_argument("--record-reference", metavar="SEEDS",
                        help="re-record reference.json for seeds LO-HI")
    args = parser.parse_args()

    if not (SRC / "subscale" / "cli.py").is_file():
        print(f"perfbench: no subscale sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference(parse_seeds(args.record_reference))
        return 0
    if args.smoke:
        from selftest import smoke

        return smoke(run_one)
    if args.workload is None:
        parser.error("--workload is required")
    print("environment: " + json.dumps(environment(), sort_keys=True), flush=True)
    line = run_one(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
