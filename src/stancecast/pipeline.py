"""Pipeline stages behind the CLI: synth, ingest, profile, label, features, evaluate, report.

Every stage is a `Stage` run by `run_stage`: refuse a stale stage anywhere up
its chain, compute the stage key (its config fields plus the upstream's hash),
do nothing on a cache hit, and otherwise remove `<stage>.hash`, write every
artifact atomically and the hash last, so an interrupted run never masquerades
as a finished stage and a changed seed invalidates everything downstream of it.
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
from typing import IO, Callable, Iterable, Iterator

from . import corpus as corpus_mod
from .config import PipelineConfig
from .corpus import Entry, TimePartition, build_forest, parse_entries, partition_periods
from .features import (
    UNION_PARTS,
    FeatureTable,
    assemble_union,
    build_vocab_top_words,
    extract_all,
    feature_table_chunks,
    feature_table_from_tsv,
    schema_columns,
)
from .learning.cv import ClassifierSpec, make_instances, nested_cv
from .stance import StanceAssignment, label_period_users, train_weak_supervised
from .synth import generate_synthetic_corpus, truth_to_tsv

log = logging.getLogger("stancecast.pipeline")


class PipelineError(Exception):
    """A stage could not run: missing or stale upstream, or runtime failure."""


# ---------------------------------------------------------------------------
# Atomic IO and the stage runner
# ---------------------------------------------------------------------------

def atomic_write_text(path: Path, text: str | Iterable[str]) -> None:
    """Write `text`, or each of its chunks in turn, beside `path`; then rename over it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.writelines([text] if isinstance(text, str) else text)
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


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _lines(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


Files = Iterable[tuple[str, str | Iterable[str]]]  # (name, text or its chunks), one at a time


@dataclasses.dataclass(frozen=True)
class Stage:
    help: str  # one line for the CLI's subcommand list
    upstream: str | None
    key: Callable[[PipelineConfig], dict]  # key fields besides stage and upstream
    artifacts: tuple[str, ...]  # "{set}" repeats a name for every feature set
    build: Callable[[PipelineConfig], Files]


def stage_key(config: PipelineConfig, stage: str) -> str:
    """Digest of everything `stage` depends on, its upstream's recorded hash included."""
    spec = STAGES[stage]
    payload = {"stage": stage, **spec.key(config)}
    if spec.upstream is not None:
        payload["upstream"] = _recorded_hash(config, spec.upstream)
    return _digest(payload)


def _recorded_hash(config: PipelineConfig, stage: str) -> str:
    with _open_artifact(config, stage, f"{stage}.hash") as handle:
        return handle.read().strip()


def _open_artifact(config: PipelineConfig, stage: str, name: str) -> IO[str]:
    """Open an artifact that `stage` wrote, for reading."""
    path = config.output_dir / name
    try:
        return open(path, encoding="utf-8")
    except FileNotFoundError:
        raise PipelineError(
            f"stage '{stage}' has not been run: missing artifact {path}") from None


def _stale(config: PipelineConfig, stage: str, key: str | None = None) -> bool:
    """Whether `stage` last ran under another key than `config` gives it, or lost an artifact."""
    sets = config.features.sets
    artifacts = [config.output_dir / name.format(set=s) for name in STAGES[stage].artifacts
                 for s in (sets if "{set}" in name else ("",))]
    return (_recorded_hash(config, stage) != (key or stage_key(config, stage))
            or not all(path.exists() for path in artifacts))


def _stale_upstream(config: PipelineConfig, stage: str) -> str | None:
    """The nearest stage up the chain from `stage` that is stale, if any.

    Each stage's key reads its upstream's recorded hash, so one walk that
    computes every key once (the input is hashed at ingest only) covers the
    whole chain: a relabel makes features stale even though evaluate's own
    key still matches.
    """
    upstream = STAGES[stage].upstream
    while upstream is not None:
        if _stale(config, upstream):
            return upstream
        upstream = STAGES[upstream].upstream
    return None


def run_stage(config: PipelineConfig, stage: str) -> None:
    """Run `stage` of `config`, unless its recorded hash shows it current."""
    out = config.output_dir
    stale = _stale_upstream(config, stage)
    if stale is not None:
        raise PipelineError(f"stage '{stale}' is stale: the config or an upstream "
                            f"stage changed since it ran; run {stale} again")
    key = stage_key(config, stage)
    if (out / f"{stage}.hash").exists() and not _stale(config, stage, key):
        log.info("%s: cache hit", stage)
        return
    files = STAGES[stage].build(config)
    # Once one artifact is rewritten the old hash no longer vouches for the
    # set, so it goes first: an interrupted run leaves the stage unrun.
    (out / f"{stage}.hash").unlink(missing_ok=True)
    for name, text in files:
        atomic_write_text(out / name, text)
    atomic_write_text(out / f"{stage}.hash", key + "\n")


def _load_corpus(config: PipelineConfig) -> tuple[list[Entry], TimePartition]:
    with _open_artifact(config, "ingest", "corpus.jsonl") as handle:
        return parse_entries(handle).entries, TimePartition.from_iso_dates(config.periods)


def _load_stances(config: PipelineConfig) -> StanceAssignment:
    with _open_artifact(config, "label", "stances.tsv") as handle:
        return StanceAssignment.from_tsv(handle.read())


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def _build_synth(config: PipelineConfig) -> Files:
    generated = generate_synthetic_corpus(config.synth, seed=config.seed)
    log.info("synth: %d entries over %d periods",
             len(generated.entries), config.synth.n_periods)
    iso = [datetime.fromtimestamp(ts, tz=timezone.utc).isoformat() for ts in generated.cutoffs]
    return [("synthetic.jsonl", corpus_mod.entries_to_jsonl(generated.entries)),
            ("synthetic_truth.tsv", truth_to_tsv(generated)),
            ("synthetic_cutoffs.json", _json({"cutoffs": iso}))]


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

def _ingest_key(config: PipelineConfig) -> dict:
    config.require_input()
    return {"input": _file_digest(config.input), "periods": list(config.periods)}


def _build_ingest(config: PipelineConfig) -> Files:
    try:
        with open(config.input, encoding="utf-8-sig", errors="surrogateescape") as handle:
            parsed = parse_entries(handle)
    except OSError as exc:
        raise PipelineError(f"cannot read input {config.input}: {exc}") from exc
    forest = build_forest(parsed.entries)
    if forest.broken_cycles:  # re-rooted cycle entries: orphan roots whose parent is present
        cycle = sorted(eid for eid in forest.orphan_roots
                       if forest.entry_index[eid].parent_id in forest.entry_index)
        log.warning("broke %d parent-link cycle entrie(s): %s", forest.broken_cycles, cycle[:10])
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
    log.info("ingest: %d entries, %d threads", diagnostics["entries"], diagnostics["threads"])
    return [("corpus.jsonl", corpus_mod.entries_to_jsonl(repaired)),
            ("ingest_diagnostics.json", _json(diagnostics))]


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------

def _build_profile(config: PipelineConfig) -> Files:
    monthly: Counter[str] = Counter()
    monthly_posts: Counter[str] = Counter()
    per_user: Counter[str] = Counter()
    initiators: set[str] = set()
    commenters: set[str] = set()
    entries, _ = _load_corpus(config)
    for entry in entries:
        month = datetime.fromtimestamp(entry.timestamp, tz=timezone.utc).strftime("%Y-%m")
        monthly[month] += 1
        per_user[entry.author] += 1
        if entry.is_post:
            monthly_posts[month] += 1
            initiators.add(entry.author)
        else:
            commenters.add(entry.author)

    total = len(entries)
    posts = sum(monthly_posts.values())
    comments = total - posts
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

    return [("profile_monthly.tsv", _lines(month_lines)),
            ("profile_ccdf.tsv", _lines(ccdf_lines)),
            ("profile_summary.json", _json(summary))]


# ---------------------------------------------------------------------------
# label
# ---------------------------------------------------------------------------

def _label_key(config: PipelineConfig) -> dict:
    config.load_lexicon()  # a missing or invalid lexicon is refused before its digest
    return {
        "seed": config.seed,
        "params": dataclasses.asdict(config.labeler),
        "lexicon": _file_digest(config.lexicon) if config.lexicon else "default",
    }


def _build_label(config: PipelineConfig) -> Files:
    entries, partition = _load_corpus(config)
    lexicon = config.load_lexicon()
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
    return [("stances.tsv", assignment.to_tsv()),
            ("labeler.json", _json(diagnostics))]


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------

def _build_features(config: PipelineConfig) -> Files:
    entries, partition = _load_corpus(config)
    stances = _load_stances(config)
    forest = build_forest(entries)
    sets = config.features.sets
    parts = {s: UNION_PARTS.get(s, (s,)) for s in sets}
    vocab: list[str] = []
    if any("FS0" in p for p in parts.values()):
        in_range = [e for e in entries if partition.period_of(e.timestamp) is not None]
        vocab = build_vocab_top_words(in_range, limit=config.features.vocab_size)
    # Unions are written from their parts' row text, never assembled here.
    bases = sorted({p for s in sets for p in parts[s]})
    try:
        tables = extract_all(forest, partition, stances, sets=bases,
                             vocab_width=config.features.vocab_size,
                             vocab=vocab)
    except ValueError as exc:
        raise PipelineError(f"feature extraction failed: {exc}") from exc

    columns = {s: schema_columns(s, vocab, config.features.vocab_size) for s in sets}
    meta = {
        "sets": {s: {"vectors": len(tables[parts[s][0]]), "width": len(columns[s])}
                 for s in sets},
        "vocab": vocab,
        "tfidf": "tf = raw count in the (user, period) document; "
                 "idf = ln((1+D)/(1+df)) + 1 over all (user, period) documents",
    }

    def files():
        for s in sets:
            yield f"features_{s}.tsv", feature_table_chunks(s, [tables[p] for p in parts[s]])
            yield f"features_{s}.schema.tsv", _lines(
                ["index\tname", *(f"{i}\t{name}" for i, name in enumerate(columns[s]))])
        yield "features.json", _json(meta)

    return files()


# ---------------------------------------------------------------------------
# evaluate / report
# ---------------------------------------------------------------------------

def _evaluate_key(config: PipelineConfig) -> dict:
    return {"seed": config.seed, "params": dataclasses.asdict(config.learning),
            "sets": list(config.features.sets)}


def _feature_tables(config: PipelineConfig) -> Iterator[tuple[str, FeatureTable]]:
    """Each configured feature table in config order, every TSV parsed once.

    A union whose constituents are all configured is assembled from their
    parsed tables, not parsed again from its own TSV. A parsed table is let go
    after the last set that reads it, and a union comes without its parts."""
    sets = config.features.sets
    reads = {s: UNION_PARTS.get(s, (s,)) for s in sets}
    reads = {s: parts if set(parts) <= set(sets) else (s,) for s, parts in reads.items()}
    left = Counter(name for s in sets for name in reads[s])
    parsed: dict[str, FeatureTable] = {}

    def read(set_id: str) -> FeatureTable:
        if set_id not in parsed:
            with _open_artifact(config, "features", f"features_{set_id}.tsv") as handle:
                try:
                    parsed[set_id] = feature_table_from_tsv(handle.read())
                except ValueError as exc:
                    raise PipelineError(f"{handle.name}: {exc}") from exc
        left[set_id] -= 1
        return parsed[set_id] if left[set_id] else parsed.pop(set_id)

    for set_id in sets:
        tables = [read(name) for name in reads[set_id]]
        if reads[set_id] == (set_id,):
            yield set_id, tables.pop()
            continue
        if not all(map(len, tables)):
            raise PipelineError(f"no supervised instances for {set_id}")
        try:
            union = dataclasses.replace(assemble_union(tables, set_id))
        except ValueError as exc:
            raise PipelineError(f"cannot assemble {set_id}: {exc}") from exc
        tables.clear()
        yield set_id, union
        del union


def _build_evaluate(config: PipelineConfig) -> Files:
    stances = _load_stances(config)
    params = config.learning
    combos, skipped = [], []
    for set_id, table in _feature_tables(config):
        instances = make_instances(table, stances)
        if not len(instances):
            raise PipelineError(f"no supervised instances for {set_id}")
        if params.per_transition:
            periods = sorted(set(instances.periods.tolist()))
            slices = [(t, instances.subset(instances.periods == t)) for t in periods]
        else:
            slices = [(None, instances)]
        for family in params.families:
            spec = ClassifierSpec(family=family, space=params.spaces.get(family, {}))
            for period, subset in slices:
                try:
                    result = nested_cv(subset, spec, outer_k=params.outer_k,
                                       inner_k=params.inner_k, search_iters=params.search_iters,
                                       seed=config.seed, group_by_user=params.group_by_user)
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
    return [("report.json", _json(report))]


def _build_report(config: PipelineConfig) -> Files:
    with _open_artifact(config, "evaluate", "report.json") as handle:
        report = json.load(handle)

    bars = ["family\tset_id\tperiod\tmetric\tmean\tstd"]
    transitions = ["family\tset_id\tperiod\tcurrent\tnext_A\tnext_N\tnext_P"]
    for combo in report["combos"]:
        head = [combo["family"], combo["set_id"], str(combo.get("period", "pooled"))]
        for metric in sorted(combo["metrics_mean"]):
            bars.append("\t".join([*head, metric, f"{combo['metrics_mean'][metric]:.6f}",
                                   f"{combo['metrics_std'][metric]:.6f}"]))
        for current, row in zip("ANP", combo["transition_f1"]):
            cells = ["n/a" if v is None else f"{v:.6f}" for v in row]
            transitions.append("\t".join([*head, current, *cells]))
    return [("report_bars.tsv", _lines(bars)),
            ("report_transitions.tsv", _lines(transitions))]


STAGES = {
    "synth": Stage("Generate a synthetic corpus plus its ground-truth trajectory sidecar.",
                   None, lambda c: {"seed": c.seed, "params": dataclasses.asdict(c.synth)},
                   ("synthetic.jsonl", "synthetic_truth.tsv", "synthetic_cutoffs.json"),
                   _build_synth),
    "ingest": Stage("Parse the dump, rebuild the forest, partition, persist diagnostics.",
                    None, _ingest_key, ("corpus.jsonl", "ingest_diagnostics.json"),
                    _build_ingest),
    "profile": Stage("Emit posting-volume, role, and messages-per-user distributions.",
                     "ingest", lambda c: {},
                     ("profile_monthly.tsv", "profile_ccdf.tsv", "profile_summary.json"),
                     _build_profile),
    "label": Stage("Weak-label hashtag extremes, train the text model, label every period.",
                   "ingest", _label_key, ("stances.tsv", "labeler.json"), _build_label),
    "features": Stage("Extract the FS0-FS5 feature tables of every labeled user-period.",
                      "label", lambda c: {"params": dataclasses.asdict(c.features)},
                      ("features_{set}.tsv", "features_{set}.schema.tsv", "features.json"),
                      _build_features),
    "evaluate": Stage("Nested cross-validation of every family on every feature set.",
                      "features", _evaluate_key, ("report.json",), _build_evaluate),
    "report": Stage("Render plot-ready TSVs from an existing evaluation report.",
                    "evaluate", lambda c: {},
                    ("report_bars.tsv", "report_transitions.tsv"), _build_report),
}
