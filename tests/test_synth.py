import hashlib
from collections import Counter

import pytest

from stancecast.corpus import build_forest, entries_to_jsonl, parse_entries, partition_periods
from stancecast.stance import Stance
from stancecast.synth import (
    SyntheticConfig,
    generate_synthetic_corpus,
    truth_to_tsv,
)
from stancecast.textprep import preprocess

from conftest import thread_root


def test_invalid_transition_strength_rejected():
    with pytest.raises(ValueError):
        SyntheticConfig(transition_strength=1.5)
    with pytest.raises(ValueError):
        SyntheticConfig(transition_strength=-0.1)


@pytest.mark.parametrize("fields, message", [
    ({"n_users": 2.5}, "n_users must be an integer"),
    ({"n_periods": True}, "n_periods must be an integer"),
    ({"start_time": -5.5}, "start_time must be an integer"),
    ({"period_seconds": "100"}, "period_seconds must be an integer"),
    ({"period_seconds": 0}, "period_seconds must be at least 1"),
    ({"stance_word_prob": 2}, "stance_word_prob must lie in [0, 1]"),
    ({"stance_word_prob": -0.1}, "stance_word_prob must lie in [0, 1]"),
    ({"stance_vocab_size": 0}, "stance_vocab_size must be at least 1"),
    ({"stance_vocab_size": -1, "stance_word_prob": 0.0}, "stance_vocab_size must be at least 0"),
    ({"common_vocab_size": 0}, "common_vocab_size must be at least 1"),
    ({"common_vocab_size": -1, "stance_word_prob": 1.0}, "common_vocab_size must be at least 0"),
    # `_word` spells 361 distinct words; a larger vocabulary would repeat them.
    ({"stance_vocab_size": 362}, "stance_vocab_size must be at least 1 and at most 361"),
    ({"common_vocab_size": 400}, "common_vocab_size must be at least 1 and at most 361"),
])
def test_out_of_range_fields_rejected(fields, message):
    with pytest.raises(ValueError, match=message.replace("[", r"\[")):
        SyntheticConfig(**fields)


@pytest.mark.parametrize("fields", [
    {"stance_vocab_size": 0, "stance_word_prob": 0.0},
    {"common_vocab_size": 0, "stance_word_prob": 1.0},
    {"period_seconds": 1, "start_time": -500},
    {"stance_vocab_size": 361, "common_vocab_size": 361},
])
def test_range_edges_still_generate(fields):
    config = SyntheticConfig(n_users=12, n_periods=2, threads_per_period=2, **fields)
    generated = generate_synthetic_corpus(config, seed=3)
    parsed = parse_entries(entries_to_jsonl(generated.entries).splitlines())
    assert parsed.malformed == 0 and len(parsed.entries) == len(generated.entries) > 0
    assert list(generated.cutoffs) == sorted(set(generated.cutoffs))


def test_fixed_seed_is_byte_identical():
    config = SyntheticConfig(n_users=40, n_periods=3, threads_per_period=4,
                             hashtag_prob=0.3)
    a = generate_synthetic_corpus(config, seed=123)
    b = generate_synthetic_corpus(config, seed=123)
    assert entries_to_jsonl(a.entries) == entries_to_jsonl(b.entries)
    assert truth_to_tsv(a) == truth_to_tsv(b)


def test_chain_biased_corpus_keeps_its_bytes():
    # The digest of the per-entry exposure lists the generator kept before it
    # tallied each thread's stances once; the tally must pick the same
    # majorities, ties and fallbacks included.
    config = SyntheticConfig(n_users=60, n_periods=3, threads_per_period=3, chain_bias=0.7,
                             participation=0.8, transition_strength=0.9)
    corpus = generate_synthetic_corpus(config, seed=3)
    text = entries_to_jsonl(corpus.entries) + truth_to_tsv(corpus)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "52b34123a1e314de10440fe88c72422babf5f41c66fdd6e5de83d8d8871c6e4b"


def test_different_seed_differs():
    config = SyntheticConfig(n_users=40, n_periods=3, threads_per_period=4)
    a = generate_synthetic_corpus(config, seed=1)
    b = generate_synthetic_corpus(config, seed=2)
    assert entries_to_jsonl(a.entries) != entries_to_jsonl(b.entries)


def test_lambda_zero_gives_uniform_next_stances():
    config = SyntheticConfig(n_users=600, n_periods=2, threads_per_period=20,
                             transition_strength=0.0)
    corpus = generate_synthetic_corpus(config, seed=7)
    counts = Counter(corpus.stances[(u, 1)] for u in
                     {user for (user, t) in corpus.stances if t == 1})
    shares = {s: counts[s] / 600 for s in Stance}
    for share in shares.values():
        assert 0.25 < share < 0.42


def test_lambda_one_all_pro_thread_forces_pro():
    # Every user Pro initially: any engaged user sees an all-Pro thread.
    config = SyntheticConfig(n_users=30, n_periods=3, threads_per_period=3,
                             transition_strength=1.0)
    corpus = generate_synthetic_corpus(config, seed=5)
    # find a seed-independent guarantee: users whose thread was all-Pro at t
    # must be Pro at t+1; verify against the emitted structure directly.
    forest = build_forest(corpus.entries)
    partition = corpus.partition
    for period in range(config.n_periods - 1):
        thread_stances = {}
        for entry in corpus.entries:
            t = partition.period_of(entry.timestamp)
            if t != period:
                continue
            root = thread_root(forest, entry.id)
            thread_stances.setdefault(root, []).append(
                corpus.stances[(entry.author, period)])
        for entry in corpus.entries:
            t = partition.period_of(entry.timestamp)
            if t != period:
                continue
            root = thread_root(forest, entry.id)
            if all(s is Stance.PRO for s in thread_stances[root]):
                assert corpus.stances[(entry.author, period + 1)] is Stance.PRO


def test_corpus_is_well_formed():
    config = SyntheticConfig(n_users=50, n_periods=3, threads_per_period=5,
                             hashtag_prob=0.4)
    corpus = generate_synthetic_corpus(config, seed=9)
    parsed = parse_entries(entries_to_jsonl(corpus.entries).splitlines())
    assert parsed.malformed == parsed.duplicates == 0
    assert parsed.entries == corpus.entries
    forest = build_forest(parsed.entries)
    assert not forest.orphan_roots
    assert forest.repaired_timestamps == 0
    result = partition_periods(parsed.entries, corpus.partition)
    assert result.discarded == 0
    # threads per period match the config
    for period, ids in result.by_period.items():
        roots = {thread_root(forest, eid) for eid in ids}
        assert len(roots) == config.threads_per_period


def test_truth_covers_every_user_period():
    config = SyntheticConfig(n_users=25, n_periods=4, threads_per_period=3,
                             participation=0.5)
    corpus = generate_synthetic_corpus(config, seed=3)
    assert len(corpus.stances) == 25 * 4


def test_stance_vocabulary_survives_preprocessing():
    # Tokens must stay distinct after stemming, or the text signal degrades.
    config = SyntheticConfig(n_users=30, n_periods=2, threads_per_period=3,
                             stance_vocab_size=25, common_vocab_size=50)
    corpus = generate_synthetic_corpus(config, seed=2)
    for entry in corpus.entries[:200]:
        raw = [w for w in entry.content.split() if not w.startswith("#")]
        assert preprocess(entry.content) == raw
