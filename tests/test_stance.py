import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stancecast.corpus import Entry, TimePartition
from stancecast.stance import (
    HashtagLexicon,
    Stance,
    StanceAssignment,
    UserStats,
    collect_user_stats,
    label_period_users,
    leave_score,
    nb_leave_probability,
    select_weak_labels,
    stance_from_probability,
    train_nb,
    train_weak_supervised,
)

from conftest import ingestible_author

LEX = HashtagLexicon(pro=frozenset({"leaveeu", "out"}),
                     against=frozenset({"remain", "stay"}))


class TestLexicon:
    def test_default_is_disjoint_and_nonempty(self):
        lex = HashtagLexicon.default()
        assert lex.pro and lex.against
        assert not (lex.pro & lex.against)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            HashtagLexicon(pro=frozenset({"x"}), against=frozenset({"x"}))

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            HashtagLexicon(pro=frozenset(), against=frozenset({"x"}))

    def test_from_file(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("[pro]\n#out\nleaveeu\n\n[against]\nremain\n", encoding="utf-8")
        lex = HashtagLexicon.from_file(path)
        assert lex.pro == {"out", "leaveeu"}
        assert lex.against == {"remain"}

    def test_from_file_through_a_utf8_bom(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("\ufeff[pro]\nleaveeu\n[against]\nremain\n", encoding="utf-8")
        lex = HashtagLexicon.from_file(path)
        assert lex.pro == {"leaveeu"} and lex.against == {"remain"}


class TestLeaveScore:
    def test_difference_of_occurrences(self):
        docs = ["#out #out now", "#leaveeu", "#remain though"]
        assert leave_score(docs, LEX) == 2

    def test_no_lexicon_tags(self):
        assert leave_score(["nothing here", "#offtopic"], LEX) == 0

    def test_balanced_usage(self):
        assert leave_score(["#out #remain #out #stay"], LEX) == 0

    def test_antisymmetric_under_lexicon_swap(self):
        swapped = HashtagLexicon(pro=LEX.against, against=LEX.pro)
        rng = random.Random(1)
        tags = ["#out", "#remain", "#stay", "#leaveeu", "#other"]
        for _ in range(25):
            docs = [" ".join(rng.choices(tags, k=rng.randint(0, 6)))
                    for _ in range(rng.randint(1, 4))]
            assert leave_score(docs, LEX) == -leave_score(docs, swapped)


def stats(messages, score, extra=0):
    """UserStats with an exact leave score; `extra` pads usage symmetrically."""
    return UserStats(messages=messages, pro_tags=max(score, 0) + extra,
                     against_tags=max(-score, 0) + extra)


class TestSelectWeakLabels:
    def test_hundred_distinct_scores(self):
        users = {f"u{i:03d}": stats(100, i - 50 if i < 50 else i - 49, extra=5)
                 for i in range(100)}
        labels = select_weak_labels(users)
        against = [u for u, s in labels.items() if s is Stance.AGAINST]
        pro = [u for u, s in labels.items() if s is Stance.PRO]
        assert len(against) == 10 and len(pro) == 10
        assert set(against) == {f"u{i:03d}" for i in range(10)}
        assert set(pro) == {f"u{i:03d}" for i in range(90, 100)}

    def test_low_message_user_excluded(self):
        users = {f"u{i:02d}": stats(100, i - 12, extra=3) for i in range(25)}
        users["extreme"] = stats(49, -99)
        labels = select_weak_labels(users, min_messages=50)
        assert "extreme" not in labels

    def test_zero_score_dropped_from_decile(self):
        # Every score non-negative: the Against decile empties out.
        users = {f"u{i:02d}": stats(100, i, extra=1) for i in range(40)}
        labels = select_weak_labels(users)
        assert all(s is Stance.PRO for s in labels.values())

    def test_nonpositive_top_decile_dropped_from_pro(self):
        users = {f"u{i:02d}": stats(100, -i, extra=1) for i in range(40)}
        labels = select_weak_labels(users)
        assert all(s is Stance.AGAINST for s in labels.values())

    def test_zero_usage_excluded(self):
        users = {f"u{i:02d}": stats(100, i - 20, extra=2) for i in range(40)}
        users["silent"] = UserStats(messages=500, pro_tags=0, against_tags=0)
        labels = select_weak_labels(users)
        assert "silent" not in labels

    def test_too_few_eligible(self):
        users = {f"u{i}": stats(100, i - 5, extra=2) for i in range(19)}
        with pytest.raises(ValueError):
            select_weak_labels(users)

    def test_deterministic_tie_break(self):
        users = {f"u{i:02d}": stats(100, 0, extra=2) for i in range(30)}
        users.update({f"neg{i}": stats(100, -3) for i in range(3)})
        users.update({f"pos{i}": stats(100, 3) for i in range(3)})
        first = select_weak_labels(users)
        second = select_weak_labels(dict(reversed(list(users.items()))))
        assert first == second


class TestTrainNB:
    def test_toy_likelihoods(self):
        model = train_nb([["a", "a"], ["b", "b"]], [Stance.PRO, Stance.AGAINST])
        pro = model.classes.index(Stance.PRO)
        a = model.vocabulary.index("a")
        b = model.vocabulary.index("b")
        assert math.exp(model.log_likelihood[pro, a]) == pytest.approx(3 / 4)
        assert math.exp(model.log_likelihood[pro, b]) == pytest.approx(1 / 4)

    def test_equal_class_counts_give_uniform_prior(self):
        model = train_nb([["a"], ["b"]], [Stance.PRO, Stance.AGAINST])
        assert np.allclose(np.exp(model.log_prior), [0.5, 0.5])

    def test_large_alpha_flattens_likelihoods(self):
        model = train_nb([["a", "a"], ["b", "b"]],
                         [Stance.PRO, Stance.AGAINST], alpha=1e7)
        probs = np.exp(model.log_likelihood)
        assert np.allclose(probs, 0.5, atol=1e-5)

    def test_model_invariants(self):
        docs = [["x", "y", "x"], ["y", "z"], ["z", "z", "x"]]
        labels = [Stance.PRO, Stance.AGAINST, Stance.AGAINST]
        model = train_nb(docs, labels, alpha=0.7)
        assert np.abs(np.exp(model.log_likelihood).sum(axis=1) - 1.0).max() < 1e-9
        assert abs(np.exp(model.log_prior).sum() - 1.0) < 1e-9

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            train_nb([["a"]], [Stance.PRO])

    def test_min_df_prunes_vocabulary(self):
        docs = [["common", "rare"], ["common"], ["common"], ["common"]]
        labels = [Stance.PRO, Stance.AGAINST, Stance.PRO, Stance.AGAINST]
        model = train_nb(docs, labels, min_df=2)
        assert model.vocabulary == ("common",)


class TestLeaveProbability:
    def test_symmetric_model_gives_half(self):
        model = train_nb([["a", "b"], ["b", "a"]], [Stance.PRO, Stance.AGAINST])
        assert nb_leave_probability(model, ["a", "b"]) == pytest.approx(0.5)

    def test_toy_posterior(self):
        model = train_nb([["a", "a"], ["b", "b"]], [Stance.PRO, Stance.AGAINST])
        assert nb_leave_probability(model, ["a"]) == pytest.approx(0.75)

    def test_empty_document_returns_prior(self):
        model = train_nb([["a"], ["a"], ["a"], ["b"], ["b"]],
                         [Stance.PRO, Stance.PRO, Stance.PRO,
                          Stance.AGAINST, Stance.AGAINST])
        assert nb_leave_probability(model, []) == pytest.approx(0.6)

    def test_oov_ignored(self):
        model = train_nb([["a", "a"], ["b", "b"]], [Stance.PRO, Stance.AGAINST])
        assert nb_leave_probability(model, ["zzz"]) == pytest.approx(0.5)

    def test_matches_brute_force_bayes(self):
        # Oracle: explicit product of per-token likelihoods, normalized,
        # no logs anywhere.
        rng = random.Random(42)
        vocab = ["w%d" % i for i in range(8)]
        for trial in range(20):
            docs = [[rng.choice(vocab) for _ in range(rng.randint(1, 5))]
                    for _ in range(6)]
            labels = [Stance.PRO if i % 2 else Stance.AGAINST for i in range(6)]
            alpha = rng.choice([0.5, 1.0, 2.0])
            model = train_nb(docs, labels, alpha=alpha)

            counts = {c: {w: 0.0 for w in model.vocabulary} for c in model.classes}
            totals = {c: 0.0 for c in model.classes}
            priors = {c: 0.0 for c in model.classes}
            for doc, label in zip(docs, labels):
                priors[label] += 1
                for token in doc:
                    counts[label][token] += 1
                    totals[label] += 1
            V = len(model.vocabulary)
            doc = [rng.choice(vocab) for _ in range(rng.randint(0, 5))]
            raw = {}
            for c in model.classes:
                value = priors[c] / len(docs)
                for token in doc:
                    if token in counts[c]:
                        value *= (counts[c][token] + alpha) / (totals[c] + alpha * V)
                raw[c] = value
            expected = raw[Stance.PRO] / (raw[Stance.PRO] + raw[Stance.AGAINST])
            assert nb_leave_probability(model, doc) == pytest.approx(expected, abs=1e-9)


class TestStanceFromProbability:
    def test_reference_points(self):
        assert stance_from_probability(0.10) is Stance.AGAINST
        assert stance_from_probability(0.80) is Stance.PRO
        assert stance_from_probability(0.25) is Stance.NEUTRAL
        assert stance_from_probability(0.75) is Stance.NEUTRAL

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            stance_from_probability(1.2)
        with pytest.raises(ValueError):
            stance_from_probability(-0.1)

    @given(st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
    def test_monotone(self, p1, p2):
        lo, hi = min(p1, p2), max(p1, p2)
        order = {Stance.AGAINST: 0, Stance.NEUTRAL: 1, Stance.PRO: 2}
        assert order[stance_from_probability(lo)] <= order[stance_from_probability(hi)]


def _corpus_for_labeling():
    partition = TimePartition((0, 100, 200, 300, 400))
    entries = [
        Entry("p1", "amy", "brexit brexit brexit", 210),
        Entry("p2", "amy", "brexit brexit", 310, "p1"),
        Entry("p3", "ben", "remain remain", 220, "p1"),
        Entry("p4", "cat", "", 230, "p1"),
    ]
    model = train_nb([["brexit", "brexit"], ["remain", "remain"]],
                     [Stance.PRO, Stance.AGAINST])
    return model, entries, partition


class TestLabelPeriodUsers:
    def test_user_active_in_two_periods_gets_both(self):
        model, entries, partition = _corpus_for_labeling()
        assignment = label_period_users(model, entries, partition)
        assert assignment.get("amy", 2) is Stance.PRO
        assert assignment.get("amy", 3) is Stance.PRO
        # both sides of a (features at 2, label at 3) instance exist
        assert ("amy", 2) in assignment.stance and ("amy", 3) in assignment.stance

    def test_user_active_once_has_single_assignment(self):
        model, entries, partition = _corpus_for_labeling()
        assignment = label_period_users(model, entries, partition)
        assert assignment.get("ben", 2) is Stance.AGAINST
        assert assignment.get("ben", 3) is None

    def test_empty_text_user_scores_at_prior(self):
        model, entries, partition = _corpus_for_labeling()
        assignment = label_period_users(model, entries, partition)
        assert assignment.probability[("cat", 2)] == pytest.approx(0.5)
        assert assignment.get("cat", 2) is Stance.NEUTRAL

    def test_oov_rate_reported(self):
        model, entries, partition = _corpus_for_labeling()
        entries.append(Entry("p5", "dan", "unheard words entirely", 240, "p1"))
        assignment = label_period_users(model, entries, partition)
        assert 0.0 < assignment.oov_rate[2] < 1.0

    def test_tsv_round_trip(self):
        model, entries, partition = _corpus_for_labeling()
        assignment = label_period_users(model, entries, partition)
        back = StanceAssignment.from_tsv(assignment.to_tsv())
        assert back.stance == assignment.stance
        for key, value in assignment.probability.items():
            assert back.probability[key] == pytest.approx(value, abs=1e-10)


@given(st.dictionaries(
    st.tuples(st.text(min_size=1).filter(ingestible_author),
              st.integers(min_value=0, max_value=50)),
    st.sampled_from(list(Stance)), max_size=20))
def test_tsv_round_trip_over_ingestible_authors(truth):
    assignment = StanceAssignment.from_truth(truth)
    assert StanceAssignment.from_tsv(assignment.to_tsv()).stance == truth


def test_label_determinism():
    model, entries, partition = _corpus_for_labeling()
    a = label_period_users(model, entries, partition)
    b = label_period_users(model, list(entries), partition)
    assert a.to_tsv() == b.to_tsv()


def test_collect_user_stats_excludes_sentinel():
    entries = [
        Entry("a", "amy", "#out", 10),
        Entry("b", "[deleted]", "#remain", 20, "a"),
    ]
    stats_map = collect_user_stats(entries, LEX)
    assert set(stats_map) == {"amy"}
    assert stats_map["amy"].pro_tags == 1


def test_distinct_hashtag_mode_counts_tags_once():
    entries = [
        Entry("a", "amy", "#out #out #leaveeu", 10),
        Entry("b", "amy", "#out #remain", 20, "a"),
        Entry("c", "bob", "#Remain #stay #remain #offtopic", 30, "b"),
        Entry("d", "bob", "#REMAIN", 40, "c"),
        Entry("e", "[deleted]", "#out #out", 50, "d"),
    ]
    occurrences = collect_user_stats(entries, LEX)
    distinct = collect_user_stats(entries, LEX, distinct_tags=True)
    assert set(occurrences) == set(distinct) == {"amy", "bob"}
    assert occurrences["amy"] == UserStats(messages=2, pro_tags=4, against_tags=1)
    assert distinct["amy"] == UserStats(messages=2, pro_tags=2, against_tags=1)
    assert occurrences["bob"] == UserStats(messages=2, pro_tags=0, against_tags=4)
    assert distinct["bob"] == UserStats(messages=2, pro_tags=0, against_tags=2)
    for user, stats in occurrences.items():
        texts = [e.content for e in entries if e.author == user]
        assert stats.pro_tags - stats.against_tags == leave_score(texts, LEX)


def test_weak_supervised_training_on_separated_vocab():
    rng = random.Random(9)
    entries = []
    serial = itertools.count()
    for i in range(30):
        user, side, tag = f"pro{i:02d}", "leave", "#out"
        for j in range(6):
            text = " ".join([side] * 4)
            if j < 2:
                text += f" {tag}"
            entries.append(Entry(f"e{next(serial)}", user, text, 10 + j))
    for i in range(30):
        user, side, tag = f"anti{i:02d}", "keep", "#remain"
        for j in range(6):
            text = " ".join([side] * 4)
            if j < 2:
                text += f" {tag}"
            entries.append(Entry(f"e{next(serial)}", user, text, 10 + j))
    rng.shuffle(entries)
    result = train_weak_supervised(entries, LEX, min_messages=5, rare_df=1, seed=3)
    assert result.n_weak_users == 12  # 10% deciles of 60 eligible users
    assert result.holdout_macro_accuracy == 1.0
