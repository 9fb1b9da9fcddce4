"""In-process tracing of subscale's public functions, from outside ``src/``.

``Tracer.install`` replaces each traced function with a wrapper under the
name its caller looks it up by (``fit`` does ``from .laws import
eval_suboptimal``, so the wrapper goes on ``subscale.fit.eval_suboptimal``);
``Tracer.remove`` puts the originals back.  A wrapper records one span
(name, start, end, parent id) in memory; ``write_spans`` writes them out at
the end of the run.  Per-sample helpers such as
``density.log_density_from_radius`` are deliberately not wrapped.

A layer's self time is the duration of its spans minus the part covered by
their direct child spans.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np


def _fit_family(args, kwargs) -> str:
    return kwargs.get("family", args[1] if len(args) > 1 else "")


class Tracer:
    def __init__(self, subscale_modules: dict):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self._targets = self._target_table(subscale_modules)

    # -- what is traced -----------------------------------------------------

    def _target_table(self, m: dict) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, span name or name(args, kwargs), result hook)."""
        fit, laws, rng, svg = m["fit"], m["laws"], m["rng"], m["svg"]
        targets = [
            (m["cli"], "main", "cli.main", self._count_outputs),
            (m["runs"], "ingest", "runs.ingest", self._count_records),
            (m["runs"], "gaussian_smooth", "runs.gaussian_smooth", None),
            (m["runs"], "split_fit_holdout", "runs.split_fit_holdout", None),
            (fit, "split_fit_holdout", "runs.split_fit_holdout", None),
            (m["runs"], "write_csv", "runs.write_csv", None),
            (fit, "compare_laws", "fit.compare_laws", None),
            (fit, "fit_law", lambda a, k: f"fit.fit_law.{_fit_family(a, k)}",
             self._count_fit),
            (fit, "predict", "fit.predict", None),
            (np.linalg, "lstsq", "fit.lstsq", None),
            (m["alloc"], "optimal_allocation", "alloc.optimal_allocation", None),
            (m["alloc"], "otr_sweep", "alloc.otr_sweep", None),
            (m["synth"], "gen_curves", "synth.gen_curves", None),
            (m["density"], "load_embeddings", "density.load_embeddings", None),
            (m["density"], "kmeans", "density.kmeans", None),
            (m["density"], "dataset_density", "density.dataset_density", None),
            (m["density"], "select_low_density", "density.select_low_density",
             self._count_removed),
            (m["density"], "apply_selection", "density.apply_selection", None),
            (svg.SvgPlot, "write", "svg.write", None),
        ]
        # evaluators: where fit looks them up, and inside laws for loss_at,
        # which alloc and synth call
        for owner in (fit, laws):
            for fn in ("eval_power", "eval_chinchilla", "eval_suboptimal"):
                targets.append((owner, fn, "laws.eval", None))
        for fn in ("power_gradient", "chinchilla_gradient", "suboptimal_gradient"):
            targets.append((fit, fn, "laws.grad", None))
        for fn in ("uniform", "uniforms", "normal", "normals", "randint", "choice_weighted"):
            targets.append((rng.SplitMix64, fn, "rng", None))
        return targets

    # -- counters filled from results ----------------------------------------

    def _count_outputs(self, args, kwargs, result) -> None:
        argv = args[0]  # main(argv) ends with "-o", out_dir
        out = Path(argv[argv.index("-o") + 1])
        self.counts["cli.bytes_written"] += sum(
            p.stat().st_size for p in out.rglob("*") if p.is_file()
        )

    def _count_records(self, args, kwargs, result) -> None:
        self.counts["runs.ingest_records"] += len(result)

    def _count_fit(self, args, kwargs, result) -> None:
        self.counts["fit.fits"] += 1
        self.counts["fit.starts"] += result.n_starts_tried
        self.counts["fit.iterations"] += result.n_iterations
        self.counts["fit.converged"] += int(result.converged)

    def _count_removed(self, args, kwargs, result) -> None:
        self.counts["density.removed"] += args[0].n_samples - len(result)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name, hook in self._targets:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook))

    def remove(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, hook):
        spans, stack = self.spans, self._stack
        fixed_name = isinstance(name, str)
        reentrant = name == "rng"  # SplitMix64.normals calls normal: count once

        def wrapper(*args, **kwargs):
            if reentrant and stack and spans[stack[-1]][0] == "rng":
                return fn(*args, **kwargs)
            span_id = len(spans)
            label = name if fixed_name else name(args, kwargs)
            spans.append((label, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[span_id] = (label, start, end, spans[span_id][3])
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ----------------------------------------------------------------

    def self_times(self) -> tuple[dict, dict]:
        """Per span name: total self time (s) and number of calls."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child_time[i]
            calls[name] += 1
        return dict(self_s), dict(calls)

    def write_spans(self, path: Path, limit: int) -> None:
        """Write the first ``limit`` spans as JSON lines."""
        with path.open("w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans[:limit]):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
