"""The one-token-pass labeling and FS0 code against the joined-text reference.

Labels and FS0 build each document from the cached tokens of its entries
and score Naive Bayes with one cumulative sum. The reference below is the
earlier algorithm: preprocess the space-joined text of a document and add
one log-likelihood column per token. Every comparison is exact.
"""

import math
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from stancecast.corpus import SENTINEL_AUTHOR, Entry, build_forest, group_user_period
from stancecast.features import build_document_index, build_vocab_top_words, compute_fs0
from stancecast.stance import (
    HashtagLexicon,
    NBModel,
    Stance,
    StanceAssignment,
    collect_user_stats,
    label_period_users,
    nb_leave_probability,
    select_weak_labels,
    stance_from_probability,
    train_nb,
    train_weak_supervised,
)
from stancecast.synth import SyntheticConfig, generate_synthetic_corpus
from stancecast.textprep import preprocess

# English phrases that exercise stopwords, suffix stripping, diacritics,
# URLs and mentions, which the vowel-free synthetic words never reach.
_PHRASES = (
    "the voters were running around hopelessly",
    "Généralisation of national conditionality",
    "see https://example.org/a?b=c and www.news.co.uk today",
    "@someone replied: relational operators are effective",
    "Caresses, ponies and happy skies",
    "naïve café owners are adjusting their agreements",
    "",
)

TRAINING = dict(min_messages=5, extreme_fraction=0.2, rare_df=2, seed=4)


def reference_leave_probability(model, tokens):
    scores = model.log_prior.copy()
    for token in tokens:
        col = model.vocab_index.get(token)
        if col is not None:
            scores = scores + model.log_likelihood[:, col]
    scores -= scores.max()
    probs = np.exp(scores)
    probs /= probs.sum()
    return float(probs[model.classes.index(Stance.PRO)])


def reference_label_period_users(model, entries, partition):
    assignment = StanceAssignment()
    token_totals: dict[int, int] = {}
    oov_totals: dict[int, int] = {}
    for (user, period), group in group_user_period(entries, partition).items():
        tokens = preprocess(" ".join(e.content for e in group))
        token_totals[period] = token_totals.get(period, 0) + len(tokens)
        oov_totals[period] = oov_totals.get(period, 0) + sum(
            1 for t in tokens if t not in model.vocab_index)
        probability = reference_leave_probability(model, tokens)
        assignment.probability[(user, period)] = probability
        assignment.stance[(user, period)] = stance_from_probability(probability)
    for period, total in sorted(token_totals.items()):
        assignment.oov_rate[period] = (oov_totals[period] / total) if total else 0.0
    return assignment


def reference_binary_macro(actual, predicted):
    accuracies, f1s = [], []
    n = len(actual)
    for stance in (Stance.AGAINST, Stance.PRO):
        tp = sum(1 for a, p in zip(actual, predicted) if a == stance and p == stance)
        fp = sum(1 for a, p in zip(actual, predicted) if a != stance and p == stance)
        fn = sum(1 for a, p in zip(actual, predicted) if a == stance and p != stance)
        tn = n - tp - fp - fn
        accuracies.append((tp + tn) / n)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    return sum(accuracies) / 2, sum(f1s) / 2


def reference_weak_training(entries, lexicon, min_messages, extreme_fraction, rare_df, seed):
    stats = collect_user_stats(entries, lexicon)
    weak = select_weak_labels(stats, min_messages=min_messages,
                              extreme_fraction=extreme_fraction)
    texts: dict[str, list[str]] = {user: [] for user in weak}
    for entry in entries:
        if entry.author in texts:
            texts[entry.author].append(entry.content)
    documents = {user: preprocess(" ".join(parts)) for user, parts in texts.items()}
    rng = random.Random(seed)
    train_users, eval_users = [], []
    for stance in (Stance.AGAINST, Stance.PRO):
        members = sorted(u for u, s in weak.items() if s == stance)
        rng.shuffle(members)
        n_eval = max(1, int(len(members) * 0.2)) if len(members) >= 2 else 0
        eval_users.extend(members[:n_eval])
        train_users.extend(members[n_eval:])
    model = train_nb([documents[u] for u in train_users], [weak[u] for u in train_users],
                     min_df=rare_df)
    predicted = [Stance.PRO if reference_leave_probability(model, documents[u]) >= 0.5
                 else Stance.AGAINST for u in eval_users]
    accuracy, f1 = reference_binary_macro([weak[u] for u in eval_users], predicted)
    return model, accuracy, f1


@pytest.fixture(scope="module")
def corpus():
    config = SyntheticConfig(n_users=120, n_periods=3, threads_per_period=6,
                             entries_per_user=4, stance_word_prob=0.3, hashtag_prob=0.5)
    generated = generate_synthetic_corpus(config, seed=21)
    rng = random.Random(21)
    entries = [replace(e, content=f"{e.content} {rng.choice(_PHRASES)}")
               if rng.random() < 0.4 else e for e in generated.entries]
    # Out-of-range entries count for training but belong to no period.
    entries += [Entry(f"early{i}", entries[i].author, _PHRASES[i], config.start_time - 5)
                for i in range(5)]
    return entries, generated.partition


@pytest.fixture(scope="module")
def training(corpus):
    entries, _ = corpus
    return train_weak_supervised(entries, HashtagLexicon.default(), **TRAINING)


def test_weak_training_matches_reference(corpus, training):
    entries, _ = corpus
    model, accuracy, f1 = reference_weak_training(
        entries, HashtagLexicon.default(), **TRAINING)
    assert training.n_eval > 0
    assert training.model.vocabulary == model.vocabulary
    assert np.array_equal(training.model.log_likelihood, model.log_likelihood)
    assert (training.holdout_macro_accuracy, training.holdout_macro_f1) == (accuracy, f1)


def test_period_labels_match_reference(corpus, training):
    entries, partition = corpus
    labeled = label_period_users(training.model, entries, partition)
    reference = reference_label_period_users(training.model, entries, partition)
    assert labeled.probability == reference.probability
    assert labeled.stance == reference.stance
    assert labeled.oov_rate == reference.oov_rate
    assert 0 < min(labeled.oov_rate.values())
    assert len(set(labeled.stance.values())) == 3


def test_fs0_documents_and_vocab_match_reference(corpus):
    entries, partition = corpus
    forest_entries = list(build_forest(entries).entry_index.values())
    documents = build_document_index(forest_entries, partition)
    reference = {
        key: Counter(preprocess(" ".join(e.content for e in group)))
        for key, group in group_user_period(entries, partition).items()
        if key[0] != SENTINEL_AUTHOR
    }
    assert {key: Counter(t for e in group for t in e.tokens)
            for key, group in documents.items()} == reference
    counts: Counter = Counter()
    for entry in entries:
        counts.update(preprocess(entry.content))
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    vocab = build_vocab_top_words(entries, limit=50)
    assert vocab == [t for t, _ in ranked[:50]]
    # TF-IDF over the reference documents. Every other document is a key,
    # so the rest count in the IDF only; a key without a document is zeros.
    total = len(reference)
    idf = [math.log((1 + total) / (1 + sum(1 for c in reference.values() if c[word]))) + 1.0
           for word in vocab]
    keys = sorted(reference)[::2] + [("nobody", 0)]
    expected = [[reference.get(key, Counter())[word] * w for word, w in zip(vocab, idf)]
                + [0.0] * 10 for key in keys]
    block = compute_fs0(keys, vocab, documents, width=60)
    assert block.tolist() == expected
    assert np.count_nonzero(block) > len(keys)


def test_leave_probability_matches_reference(training):
    model = training.model
    rng = random.Random(8)
    pool = list(model.vocabulary[:200]) + ["zzunknown", "qqmissing", "xyzzy"]
    cases = [[], ["zzunknown"], ["xyzzy", "qqmissing"]]
    cases += [[rng.choice(pool) for _ in range(rng.randrange(1, 400))] for _ in range(200)]
    for tokens in cases:
        assert nb_leave_probability(model, tokens) == reference_leave_probability(model, tokens)


def test_leave_probability_matches_reference_bit_for_bit():
    # Close class likelihoods keep the posterior away from 0 and 1, so a
    # reordered sum of the log terms shows up in the returned bits.
    rng = np.random.default_rng(5)
    vocabulary = tuple(f"w{i}" for i in range(60))
    model = NBModel(vocabulary=vocabulary, classes=(Stance.AGAINST, Stance.PRO),
                    log_prior=np.log([0.4, 0.6]),
                    log_likelihood=rng.normal(-4.0, 0.05, size=(2, 60)), alpha=1.0)
    pool = list(vocabulary) + ["oov"]
    for _ in range(500):
        tokens = list(rng.choice(pool, size=rng.integers(1, 80)))
        assert nb_leave_probability(model, tokens) == reference_leave_probability(model, tokens)


def test_leave_probability_with_empty_vocabulary():
    model = train_nb([["a"], ["b"], ["c"]], [Stance.PRO, Stance.AGAINST, Stance.PRO], min_df=5)
    assert model.vocabulary == ()
    for tokens in ([], ["a", "b"]):
        assert nb_leave_probability(model, tokens) == reference_leave_probability(model, tokens)
    assert nb_leave_probability(model, []) == pytest.approx(2 / 3)


def test_entry_tokens_are_cached_and_replace_recomputes():
    entry = Entry("e1", "amy", "Running voters", 10)
    assert entry.tokens == ("run", "voter")
    assert entry.tokens is entry.tokens
    assert replace(entry, content="happy skies").tokens == ("happi", "ski")
    assert entry == Entry("e1", "amy", "Running voters", 10)
