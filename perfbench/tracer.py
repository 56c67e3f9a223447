"""Spans recorded from outside the program, around calls into each layer.

`Tracer.install` replaces a public function with a timing wrapper on every
`stancecast` module that binds it (the defining module, each caller that
imported it by name, and package re-exports), so a call is traced whichever
name it goes through. Spans stay in memory until `write_spans`; per-layer
metrics are derived from them afterwards by `layer_metrics`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from typing import Callable, Optional

# (defining module, function, span name). The span name is the layer metric
# prefix, so it survives a refactor that moves the function between modules.
TRACED = (
    ("stancecast.corpus", "parse_entries", "corpus.parse_entries"),
    ("stancecast.corpus", "build_forest", "corpus.build_forest"),
    ("stancecast.corpus", "partition_periods", "corpus.partition_periods"),
    ("stancecast.textprep", "preprocess", "textprep.preprocess"),
    ("stancecast.stance", "train_weak_supervised", "stance.train_weak_supervised"),
    ("stancecast.stance", "label_period_users", "stance.label_period_users"),
    ("stancecast.stance", "nb_leave_probability", "stance.nb_leave_probability"),
    ("stancecast.features", "extract_all", "features.extract_all"),
    ("stancecast.features", "build_period_user_index", "features.build_period_user_index"),
    ("stancecast.features", "compute_fs0", "features.compute_fs0"),
    ("stancecast.features", "compute_fs1", "features.compute_fs1"),
    ("stancecast.features", "compute_fs2", "features.compute_fs2"),
    ("stancecast.features", "compute_fs3", "features.compute_fs3"),
    ("stancecast.features", "assemble_union", "features.assemble_union"),
    ("stancecast.features", "build_vocab_top_words", "features.build_vocab_top_words"),
    ("stancecast.features", "build_document_index", "features.build_document_index"),
    ("stancecast.features", "feature_table_tsv", "features.feature_table_tsv"),
    ("stancecast.features", "feature_table_from_tsv", "features.feature_table_from_tsv"),
    ("stancecast.learning.cv", "make_instances", "learning.make_instances"),
    ("stancecast.learning.cv", "nested_cv", "learning.nested_cv"),
    ("stancecast.learning.classifiers", "train_predict", "learning.train_predict"),
    ("stancecast.learning.classifiers", "sample_params", "learning.sample_params"),
    ("stancecast.learning.evaluation", "macro_metrics", "learning.macro_metrics"),
)

# The program's learning.FAMILIES and CLI stages; run.py reads this module
# without importing the program.
FAMILIES = ("logistic_regression", "knn", "random_forest", "gradient_boosting",
            "gaussian_nb")
STAGES = ("ingest", "profile", "label", "features", "evaluate", "report")

# Timed layer functions reported as `<span name>_s`; absent ones report 0.
_TIMED = [name for _, _, name in TRACED
          if name not in ("learning.nested_cv", "learning.train_predict",
                          "learning.sample_params")]

# Spans whose union is each workload's stated dominant layer.
DOMINANT = {
    "cli-scraped": ("textprep.", "stance.", "features.compute_fs0",
                    "features.build_document_index", "features.build_vocab_top_words"),
    "deep-threads": ("features.compute_fs1", "features.compute_fs2",
                     "features.compute_fs3"),
    "planted-forecast": ("learning.",),
}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    names = [("synth.generate_s", "s")]
    names += [(f"{n}_s", "s") for n in _TIMED]
    names += [(f"corpus.{k}", "count") for k in (
        "entries", "malformed", "duplicates", "orphan_roots", "broken_cycles",
        "clamped_timestamps", "max_depth")]
    names += [("textprep.preprocess_calls", "count"), ("textprep.tokens", "count"),
              ("textprep.distinct_tokens", "count"), ("textprep.text_passes", "ratio")]
    names += [("stance.nb_leave_probability_calls", "count"),
              ("stance.weak_users", "count"), ("stance.labeled_user_periods", "count")]
    names += [("features.vectors", "count")]
    for family in FAMILIES:
        names += [(f"learning.{family}.nested_cv_s", "s"),
                  (f"learning.{family}.train_predict_s", "s"),
                  (f"learning.{family}.train_predict_calls", "count")]
    names += [("learning.cv.candidates", "count"), ("learning.cv.distinct_candidates", "count"),
              ("learning.cv.distinct_ratio", "ratio")]
    names += [(f"pipeline.{stage}_s", "s") for stage in STAGES]
    names += [("pipeline.rerun_s", "s"), ("pipeline.cache_hits", "count"),
              ("pipeline.stages", "count"),
              ("pipeline.bytes_written", "bytes"), ("pipeline.cpu_s", "s"),
              ("pipeline.self_s", "s")]
    names += [("trace.run_s", "s"), ("trace.untraced_run_s", "s"),
              ("trace.overhead_s", "s"), ("trace.dominant_share", "ratio")]
    return names


class Tracer:
    """In-memory span recorder: (name, start, end, parent index) per span."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Optional[tuple[str, float, float, int]]] = []
        self.counts: Counter = Counter()
        self.first: dict[str, object] = {}
        self._stack: list[int] = []
        self._distinct_tokens: set[str] = set()
        self._candidates: list[list] = []

    # -- recording -------------------------------------------------------
    def span(self, name: str):
        return _Span(self, name)

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, parent

    def _close(self, index: int, parent: int, name: str, start: float, end: float) -> None:
        self._stack.pop()
        self.spans[index] = (name, start, end, parent)

    def wrap(self, fn: Callable, name: str) -> Callable:
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        before = getattr(self, "_before_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name
            if before is not None:
                span_name = before(args, kwargs) or name
            index, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._close(index, parent, span_name, start, end)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function on every stancecast module binding it."""
        for module_name, attr, name in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(original, name)
            for mod_name, module in list(sys.modules.items()):
                if (mod_name == "stancecast" or mod_name.startswith("stancecast.")) \
                        and getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)

    # -- counters taken from arguments and results ------------------------
    def _observe_corpus_parse_entries(self, args, kwargs, result) -> None:
        self.first.setdefault("parse", (len(result.entries), result.malformed, result.duplicates,
                                   sum(len(e.content) for e in result.entries)))

    def _observe_corpus_build_forest(self, args, kwargs, result) -> None:
        if "forest" not in self.first:
            self.first["forest"] = (len(result.orphan_roots), result.broken_cycles,
                                    result.repaired_timestamps, _max_depth(result))

    def _observe_textprep_preprocess(self, args, kwargs, result) -> None:
        self.counts["textprep.chars"] += len(args[0] if args else kwargs["text"])
        self.counts["textprep.tokens"] += len(result)
        self._distinct_tokens.update(result)

    def _observe_stance_train_weak_supervised(self, args, kwargs, result) -> None:
        self.first.setdefault("weak_users", result.n_weak_users)

    def _observe_stance_label_period_users(self, args, kwargs, result) -> None:
        self.first.setdefault("labeled_user_periods", len(result.stance))

    def _observe_features_extract_all(self, args, kwargs, result) -> None:
        self.counts["features.vectors"] += sum(len(v) for v in result.values())

    def _before_learning_train_predict(self, args, kwargs) -> str:
        return f"learning.{args[0] if args else kwargs['family']}.train_predict"

    def _before_learning_nested_cv(self, args, kwargs) -> str:
        spec = args[1] if len(args) > 1 else kwargs["spec"]
        iters = args[4] if len(args) > 4 else kwargs.get("search_iters", 500)
        self._candidates.append([iters])
        return f"learning.{spec.family}.nested_cv"

    def _observe_learning_nested_cv(self, args, kwargs, result) -> None:
        iters, *drawn = self._candidates.pop()
        # Candidates repeat only within one outer fold's search.
        for fold in range(0, len(drawn), max(iters, 1)):
            chunk = drawn[fold:fold + iters]
            self.counts["learning.cv.candidates"] += len(chunk)
            self.counts["learning.cv.distinct_candidates"] += len(set(chunk))

    def _observe_learning_sample_params(self, args, kwargs, result) -> None:
        if self._candidates:
            self._candidates[-1].append(json.dumps(result, sort_keys=True))

    # -- output ------------------------------------------------------------
    def write_spans(self, path) -> None:
        """One JSON object per span: name, start, end, parent, run id."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent = span
                handle.write(json.dumps({"span": index, "name": name, "start": start,
                                         "end": end, "parent": parent,
                                         "run_id": self.run_id}) + "\n")

    def layer_metrics(self, phase: str, workload: str) -> dict[str, float]:
        """Per-layer metrics over the spans below the top-level `phase` span."""
        spans = self.spans
        phase_index = next(i for i, s in enumerate(spans) if s and s[0] == phase and s[3] == -1)
        phase_start, phase_end = spans[phase_index][1], spans[phase_index][2]
        inside = [i for i, s in enumerate(spans)
                  if s and i > phase_index and s[1] >= phase_start and s[2] <= phase_end]

        def outermost(i: int) -> bool:
            name, parent = spans[i][0], spans[i][3]
            while parent >= 0:
                if spans[parent][0] == name:
                    return False
                parent = spans[parent][3]
            return True

        totals: Counter = Counter()
        calls: Counter = Counter()
        child_time: Counter = Counter()
        for i in inside:
            name, start, end, parent = spans[i]
            calls[name] += 1
            if outermost(i):
                totals[name] += end - start
            child_time[parent] += end - start

        metrics: dict[str, float] = {f"{n}_s": totals[n] for n in _TIMED}
        metrics["corpus.entries"], metrics["corpus.malformed"], metrics["corpus.duplicates"], \
            body_chars = self.first.get("parse", (0, 0, 0, 0))
        (metrics["corpus.orphan_roots"], metrics["corpus.broken_cycles"],
         metrics["corpus.clamped_timestamps"], metrics["corpus.max_depth"]) = \
            self.first.get("forest", (0, 0, 0, 0))
        metrics["textprep.preprocess_calls"] = calls["textprep.preprocess"]
        metrics["textprep.tokens"] = self.counts["textprep.tokens"]
        metrics["textprep.distinct_tokens"] = len(self._distinct_tokens)
        metrics["textprep.text_passes"] = (self.counts["textprep.chars"] / body_chars
                                           if body_chars else 0.0)
        metrics["stance.nb_leave_probability_calls"] = calls["stance.nb_leave_probability"]
        metrics["stance.weak_users"] = self.first.get("weak_users", 0)
        metrics["stance.labeled_user_periods"] = self.first.get("labeled_user_periods", 0)
        metrics["features.vectors"] = self.counts["features.vectors"]
        for family in FAMILIES:
            metrics[f"learning.{family}.nested_cv_s"] = totals[f"learning.{family}.nested_cv"]
            metrics[f"learning.{family}.train_predict_s"] = \
                totals[f"learning.{family}.train_predict"]
            metrics[f"learning.{family}.train_predict_calls"] = \
                calls[f"learning.{family}.train_predict"]
        candidates = self.counts["learning.cv.candidates"]
        distinct = self.counts["learning.cv.distinct_candidates"]
        metrics["learning.cv.candidates"] = candidates
        metrics["learning.cv.distinct_candidates"] = distinct
        metrics["learning.cv.distinct_ratio"] = distinct / candidates if candidates else 0.0
        for stage in STAGES:
            metrics[f"pipeline.{stage}_s"] = totals[f"pipeline.{stage}"]
        metrics["pipeline.self_s"] = sum(spans[i][2] - spans[i][1] - child_time[i]
                                         for i in inside if spans[i][0].startswith("pipeline."))

        prefixes = DOMINANT[workload]
        covered = _union([(spans[i][1], spans[i][2]) for i in inside
                          if spans[i][0].startswith(prefixes)])
        metrics["trace.dominant_share"] = covered / (phase_end - phase_start)
        return metrics


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.index, self.parent = self.tracer._open()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.index, self.parent, self.name, self.start,
                           time.perf_counter())
        return False


def _union(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _max_depth(forest) -> int:
    """Deepest root-to-entry path, in edges."""
    depth = 0
    stack = [(root, 0) for root in forest.roots]
    while stack:
        node, d = stack.pop()
        depth = max(depth, d)
        stack.extend((child, d + 1) for child in forest.children[node])
    return depth
