"""Pipeline stages behind the CLI: ingest, profile, label, features, evaluate.

Each stage writes its artifacts plus a hash file keyed by everything the
stage depends on (its config section and the upstream stage hash), so an
unchanged rerun is a cache hit and a changed seed invalidates everything
downstream of the first seeded stage. Files are written to a temporary
name and atomically renamed; the hash file lands last, so an interrupted
run never masquerades as a finished stage.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import json
import logging
import os
import tempfile
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable

from . import corpus as corpus_mod
from .config import PipelineConfig
from .corpus import (
    Entry,
    TimePartition,
    build_forest,
    parse_entries,
    partition_periods,
)
from .features import (
    build_vocab_top_words,
    extract_all,
    feature_table_from_tsv,
    feature_table_tsv,
    schema_columns,
)
from .learning.cv import ClassifierSpec, make_instances, nested_cv
from .stance import (
    HashtagLexicon,
    StanceAssignment,
    label_period_users,
    train_weak_supervised,
)
from .synth import SyntheticCorpus, generate_synthetic_corpus, truth_to_tsv

log = logging.getLogger("stancecast.pipeline")


class PipelineError(Exception):
    """A stage could not run: missing upstream artifact or runtime failure."""


# ---------------------------------------------------------------------------
# Atomic IO and stage hashing
# ---------------------------------------------------------------------------

def atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()


def _file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _hash_path(config: PipelineConfig, stage: str) -> Path:
    return config.output_dir / f"{stage}.hash"


def _stage_fresh(config: PipelineConfig, stage: str, key: str, artifacts: Iterable[Path]) -> bool:
    hash_file = _hash_path(config, stage)
    if not hash_file.exists():
        return False
    if hash_file.read_text(encoding="utf-8").strip() != key:
        return False
    return all(p.exists() for p in artifacts)


def _finish_stage(config: PipelineConfig, stage: str, key: str) -> None:
    atomic_write_text(_hash_path(config, stage), key + "\n")


def _read_stage_hash(config: PipelineConfig, stage: str) -> str:
    hash_file = _hash_path(config, stage)
    if not hash_file.exists():
        raise PipelineError(
            f"stage '{stage}' has not been run: missing artifact {hash_file}")
    return hash_file.read_text(encoding="utf-8").strip()


def _params_dict(params) -> dict:
    return dataclasses.asdict(params)


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

def corpus_path(config: PipelineConfig) -> Path:
    return config.output_dir / "corpus.jsonl"


def run_ingest(config: PipelineConfig) -> dict:
    """Parse the dump, rebuild the forest, partition, persist diagnostics."""
    config.require_input()
    key = _digest({
        "stage": "ingest",
        "input": _file_digest(config.input),
        "periods": list(config.periods),
    })
    artifacts = [corpus_path(config), config.output_dir / "ingest_diagnostics.json"]
    if _stage_fresh(config, "ingest", key, artifacts):
        log.info("ingest: cache hit, reusing %s", artifacts[0])
        return json.loads(artifacts[1].read_text(encoding="utf-8"))

    try:
        with open(config.input, encoding="utf-8") as handle:
            parsed = parse_entries(handle)
    except OSError as exc:
        raise PipelineError(f"cannot read input {config.input}: {exc}") from exc
    forest = build_forest(parsed.entries)
    partition = TimePartition.from_iso_dates(config.periods)
    repaired = sorted(forest.entry_index.values(), key=lambda e: (e.timestamp, e.id))
    result = partition_periods(repaired, partition)
    diagnostics = {
        "entries": len(parsed.entries),
        "malformed_records": parsed.malformed,
        "duplicate_ids": parsed.duplicates,
        "orphan_roots": len(forest.orphan_roots),
        "broken_cycles": forest.broken_cycles,
        "clamped_timestamps": forest.repaired_timestamps,
        "threads": len(forest.roots),
        "out_of_range_entries": result.discarded,
        "periods": {str(j): len(ids) for j, ids in sorted(result.by_period.items())},
    }
    atomic_write_text(corpus_path(config), corpus_mod.entries_to_jsonl(repaired))
    atomic_write_text(artifacts[1], json.dumps(diagnostics, indent=2, sort_keys=True) + "\n")
    _finish_stage(config, "ingest", key)
    log.info("ingest: %d entries, %d threads", diagnostics["entries"], diagnostics["threads"])
    return diagnostics


def load_ingested(config: PipelineConfig) -> tuple[list[Entry], TimePartition]:
    _read_stage_hash(config, "ingest")
    path = corpus_path(config)
    if not path.exists():
        raise PipelineError(f"missing artifact {path}; run ingest first")
    with open(path, encoding="utf-8") as handle:
        parsed = parse_entries(handle)
    return parsed.entries, TimePartition.from_iso_dates(config.periods)


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------

def run_profile(config: PipelineConfig) -> dict:
    """Emit posting-volume, role, and messages-per-user distributions."""
    entries, _ = load_ingested(config)
    monthly: Counter[str] = Counter()
    monthly_posts: Counter[str] = Counter()
    per_user: Counter[str] = Counter()
    initiators: set[str] = set()
    commenters: set[str] = set()
    posts = comments = 0
    for entry in entries:
        month = datetime.fromtimestamp(entry.timestamp, tz=timezone.utc).strftime("%Y-%m")
        monthly[month] += 1
        per_user[entry.author] += 1
        if entry.is_post:
            posts += 1
            monthly_posts[month] += 1
            initiators.add(entry.author)
        else:
            comments += 1
            commenters.add(entry.author)

    total = posts + comments
    roles = {
        "initiator_only": len(initiators - commenters),
        "both": len(initiators & commenters),
        "commenter_only": len(commenters - initiators),
    }
    summary = {
        "entries": total,
        "posts": posts,
        "comments": comments,
        "comment_share": comments / total if total else 0.0,
        "unique_authors": len(per_user),
        "roles": roles,
    }

    month_lines = ["month\tposts\tcomments\ttotal"]
    for month in sorted(monthly):
        p = monthly_posts.get(month, 0)
        month_lines.append(f"{month}\t{p}\t{monthly[month] - p}\t{monthly[month]}")

    counts = sorted(per_user.values())
    n_users = len(counts)
    ccdf_lines = ["messages\tccdf"]
    for value in sorted(set(counts)):
        at_least = n_users - bisect.bisect_left(counts, value)
        ccdf_lines.append(f"{value}\t{at_least / n_users:.10g}")

    atomic_write_text(config.output_dir / "profile_monthly.tsv", "\n".join(month_lines) + "\n")
    atomic_write_text(config.output_dir / "profile_ccdf.tsv", "\n".join(ccdf_lines) + "\n")
    atomic_write_text(config.output_dir / "profile_summary.json",
                      json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


# ---------------------------------------------------------------------------
# label
# ---------------------------------------------------------------------------

def stances_path(config: PipelineConfig) -> Path:
    return config.output_dir / "stances.tsv"


def run_label(config: PipelineConfig) -> dict:
    """Weak-label hashtag extremes, train the text model, label every period."""
    config.require_lexicon()
    upstream = _read_stage_hash(config, "ingest")
    key = _digest({
        "stage": "label",
        "upstream": upstream,
        "seed": config.seed,
        "params": _params_dict(config.labeler),
        "lexicon": _file_digest(config.lexicon) if config.lexicon else "default",
    })
    artifacts = [stances_path(config), config.output_dir / "labeler.json"]
    if _stage_fresh(config, "label", key, artifacts):
        log.info("label: cache hit")
        return json.loads(artifacts[1].read_text(encoding="utf-8"))

    entries, partition = load_ingested(config)
    lexicon = (HashtagLexicon.from_file(config.lexicon)
               if config.lexicon else HashtagLexicon.default())
    params = config.labeler
    try:
        training = train_weak_supervised(
            entries, lexicon,
            alpha=params.alpha,
            min_messages=params.min_messages,
            extreme_fraction=params.extreme_fraction,
            rare_df=params.rare_df,
            holdout_fraction=params.holdout_fraction,
            distinct_tags=params.distinct_hashtags,
            seed=config.seed,
        )
    except ValueError as exc:
        raise PipelineError(f"weak labeling failed: {exc}") from exc
    assignment = label_period_users(training.model, entries, partition,
                                    lower=params.lower_cutoff,
                                    upper=params.upper_cutoff)
    diagnostics = {
        "weak_labeled_users": training.n_weak_users,
        "train_users": training.n_train,
        "eval_users": training.n_eval,
        "holdout_macro_accuracy": training.holdout_macro_accuracy,
        "holdout_macro_f1": training.holdout_macro_f1,
        "vocabulary_size": len(training.model.vocabulary),
        "labeled_user_periods": len(assignment.stance),
        "oov_rate_per_period": {str(k): v for k, v in sorted(assignment.oov_rate.items())},
    }
    atomic_write_text(stances_path(config), assignment.to_tsv())
    atomic_write_text(artifacts[1], json.dumps(diagnostics, indent=2, sort_keys=True) + "\n")
    _finish_stage(config, "label", key)
    return diagnostics


def load_stances(config: PipelineConfig) -> StanceAssignment:
    _read_stage_hash(config, "label")
    path = stances_path(config)
    if not path.exists():
        raise PipelineError(f"missing artifact {path}; run label first")
    return StanceAssignment.from_tsv(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------

def feature_table_path(config: PipelineConfig, set_id: str) -> Path:
    return config.output_dir / f"features_{set_id}.tsv"


def run_features(config: PipelineConfig) -> dict:
    upstream = _read_stage_hash(config, "label")
    key = _digest({
        "stage": "features",
        "upstream": upstream,
        "params": _params_dict(config.features),
    })
    artifacts = [feature_table_path(config, s) for s in config.features.sets]
    artifacts.append(config.output_dir / "features.json")
    if _stage_fresh(config, "features", key, artifacts):
        log.info("features: cache hit")
        return json.loads(artifacts[-1].read_text(encoding="utf-8"))

    entries, partition = load_ingested(config)
    stances = load_stances(config)
    forest = build_forest(entries)
    vocab: list[str] = []
    if any(s in ("FS0", "FS5") for s in config.features.sets):
        in_range = [e for e in entries if partition.period_of(e.timestamp) is not None]
        vocab = build_vocab_top_words(in_range, limit=config.features.vocab_size)
    try:
        tables = extract_all(forest, partition, stances,
                             sets=config.features.sets,
                             vocab_width=config.features.vocab_size,
                             vocab=vocab or None)
    except ValueError as exc:
        raise PipelineError(f"feature extraction failed: {exc}") from exc

    meta = {
        "sets": {},
        "vocab": vocab,
        "tfidf": "tf = raw count in the (user, period) document; "
                 "idf = ln((1+D)/(1+df)) + 1 over all (user, period) documents",
    }
    for set_id in config.features.sets:
        table = tables[set_id]
        atomic_write_text(feature_table_path(config, set_id), feature_table_tsv(table))
        columns = schema_columns(set_id, vocab, config.features.vocab_size)
        schema_lines = ["index\tname"] + [f"{i}\t{name}" for i, name in enumerate(columns)]
        atomic_write_text(config.output_dir / f"features_{set_id}.schema.tsv",
                          "\n".join(schema_lines) + "\n")
        meta["sets"][set_id] = {"vectors": len(table), "width": len(columns)}
    atomic_write_text(config.output_dir / "features.json",
                      json.dumps(meta, indent=2, sort_keys=True) + "\n")
    _finish_stage(config, "features", key)
    return meta


# ---------------------------------------------------------------------------
# evaluate / report
# ---------------------------------------------------------------------------

def report_path(config: PipelineConfig) -> Path:
    return config.output_dir / "report.json"


def evaluate_key(config: PipelineConfig) -> str:
    """Stage key of evaluate: the features hash, the seed and the learning settings."""
    return _digest({
        "stage": "evaluate",
        "upstream": _read_stage_hash(config, "features"),
        "seed": config.seed,
        "params": _params_dict(config.learning),
        "sets": list(config.features.sets),
    })


def run_evaluate(config: PipelineConfig) -> dict:
    key = evaluate_key(config)
    if _stage_fresh(config, "evaluate", key, [report_path(config)]):
        log.info("evaluate: cache hit")
        return json.loads(report_path(config).read_text(encoding="utf-8"))

    stances = load_stances(config)
    params = config.learning
    combos = []
    skipped = []
    for set_id in config.features.sets:
        path = feature_table_path(config, set_id)
        if not path.exists():
            raise PipelineError(f"missing artifact {path}; run features first")
        try:
            table = feature_table_from_tsv(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise PipelineError(f"{path}: {exc}") from exc
        instances = make_instances(table, stances)
        if not len(instances):
            raise PipelineError(f"no supervised instances for {set_id}")
        if params.per_transition:
            periods = sorted(set(instances.periods.tolist()))
            slices = [(t, instances.subset(instances.periods == t)) for t in periods]
        else:
            slices = [(None, instances)]
        for family in params.families:
            spec = ClassifierSpec(family=family,
                                  space=params.spaces.get(family, {}))
            for period, subset in slices:
                try:
                    result = nested_cv(
                        subset, spec,
                        outer_k=params.outer_k,
                        inner_k=params.inner_k,
                        search_iters=params.search_iters,
                        seed=config.seed,
                        group_by_user=params.group_by_user,
                    )
                except ValueError as exc:
                    skipped.append({"family": family, "set_id": set_id,
                                    "period": period, "reason": str(exc)})
                    log.warning("evaluate: skipping %s on %s period %s: %s",
                                family, set_id, period, exc)
                    continue
                entry = result.to_dict()
                entry["set_id"] = set_id
                entry["n_instances"] = len(subset)
                if period is not None:
                    entry["period"] = period
                combos.append(entry)
                log.info("evaluate: %s on %s%s macro-F1 %.4f", family, set_id,
                         "" if period is None else f" t={period}",
                         result.metrics_mean["macro_f1"])
    report = {
        "created": datetime.now(tz=timezone.utc).isoformat(),
        "seed": config.seed,
        "outer_k": params.outer_k,
        "inner_k": params.inner_k,
        "search_iters": params.search_iters,
        "group_by_user": params.group_by_user,
        "per_transition": params.per_transition,
        "combos": combos,
        "skipped": skipped,
    }
    atomic_write_text(report_path(config), json.dumps(report, indent=2, sort_keys=True) + "\n")
    _finish_stage(config, "evaluate", key)
    return report


def run_report(config: PipelineConfig) -> dict:
    """Render plot-ready TSVs from an existing evaluation report."""
    path = report_path(config)
    if not path.exists():
        raise PipelineError(f"missing artifact {path}; run evaluate first")
    if _read_stage_hash(config, "evaluate") != evaluate_key(config):
        raise PipelineError(f"{path} is stale: the config or an upstream stage changed "
                            "since evaluate ran; run evaluate again")
    report = json.loads(path.read_text(encoding="utf-8"))

    bar_lines = ["family\tset_id\tperiod\tmetric\tmean\tstd"]
    for combo in report["combos"]:
        period = str(combo.get("period", "pooled"))
        for metric in sorted(combo["metrics_mean"]):
            bar_lines.append("\t".join([
                combo["family"], combo["set_id"], period, metric,
                f"{combo['metrics_mean'][metric]:.6f}",
                f"{combo['metrics_std'][metric]:.6f}",
            ]))
    atomic_write_text(config.output_dir / "report_bars.tsv", "\n".join(bar_lines) + "\n")

    stances = ("A", "N", "P")
    tr_lines = ["family\tset_id\tperiod\tcurrent\tnext_A\tnext_N\tnext_P"]
    for combo in report["combos"]:
        period = str(combo.get("period", "pooled"))
        for i, row in enumerate(combo["transition_f1"]):
            cells = ["n/a" if v is None else f"{v:.6f}" for v in row]
            tr_lines.append("\t".join([combo["family"], combo["set_id"],
                                       period, stances[i], *cells]))
    atomic_write_text(config.output_dir / "report_transitions.tsv", "\n".join(tr_lines) + "\n")
    return report


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def run_synth(config: PipelineConfig) -> SyntheticCorpus:
    """Generate a synthetic corpus plus its ground-truth trajectory sidecar."""
    generated = generate_synthetic_corpus(config.synth, seed=config.seed)
    atomic_write_text(config.output_dir / "synthetic.jsonl",
                      corpus_mod.entries_to_jsonl(generated.entries))
    atomic_write_text(config.output_dir / "synthetic_truth.tsv", truth_to_tsv(generated))
    iso = [
        datetime.fromtimestamp(ts, tz=timezone.utc).isoformat()
        for ts in generated.cutoffs
    ]
    atomic_write_text(config.output_dir / "synthetic_cutoffs.json",
                      json.dumps({"cutoffs": iso}, indent=2) + "\n")
    log.info("synth: %d entries over %d periods",
             len(generated.entries), config.synth.n_periods)
    return generated
