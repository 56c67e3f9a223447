import dataclasses
import random
import tracemalloc
from math import log as ln

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stancecast.corpus import (
    SENTINEL_AUTHOR,
    Entry,
    TimePartition,
    build_forest,
    extract_diffusions,
)
import stancecast.features as features_mod
from stancecast.features import (
    SET_IDS,
    SYMBOLIC_COUNTS,
    UNION_PARTS,
    FeatureTable,
    assemble_union,
    build_document_index,
    build_period_user_index,
    build_vocab_top_words,
    compute_fs0,
    compute_fs1,
    compute_fs2,
    compute_fs3,
    extract_all,
    feature_table_chunks,
    feature_table_from_tsv,
    feature_table_tsv,
    grouped_quantiles5,
    numeric_dim,
    quantiles5,
    schema_columns,
)
from stancecast.stance import STANCE_ORDER, Stance, StanceAssignment
from stancecast.synth import SyntheticConfig, generate_synthetic_corpus

from conftest import ingestible_author, random_stances, random_tree_entries, thread_root

A, N, P = Stance.AGAINST, Stance.NEUTRAL, Stance.PRO


class TestQuantiles5:
    def test_three_values(self):
        assert quantiles5([0, 1, 2]) == (0.0, 0.5, 1.0, 1.5, 2.0)

    def test_empty(self):
        assert quantiles5([]) == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_constant(self):
        assert quantiles5([4, 4, 4, 4]) == (4.0, 4.0, 4.0, 4.0, 4.0)

    def test_two_values_interpolated(self):
        assert quantiles5([2, 6]) == (2.0, 3.0, 4.0, 5.0, 6.0)

    def test_matches_numpy_linear(self):
        rng = random.Random(2)
        for _ in range(50):
            data = [rng.randint(0, 30) for _ in range(rng.randint(1, 40))]
            ours = quantiles5(data)
            ref = np.quantile(np.array(data, dtype=float),
                              [0, 0.25, 0.5, 0.75, 1.0], method="linear")
            assert np.allclose(ours, ref)

    @given(st.lists(st.integers(min_value=0, max_value=10_000), max_size=60))
    def test_nondecreasing_min_max(self, data):
        q = quantiles5(data)
        assert all(a <= b for a, b in zip(q, q[1:]))
        if data:
            assert q[0] == min(data)
            assert q[-1] == max(data)


def reference_quantiles5(values):
    """The scalar quantile rule as it was before the grouped kernel, frozen."""
    data = sorted(float(v) for v in values)
    if not data:
        return (0.0, 0.0, 0.0, 0.0, 0.0)
    n = len(data)
    out = []
    for q in (0.0, 0.25, 0.50, 0.75, 1.0):
        h = (n - 1) * q
        lo = int(h)
        hi = min(lo + 1, n - 1)
        out.append(data[lo] + (h - lo) * (data[hi] - data[lo]))
    return tuple(out)


class TestGroupedQuantiles:
    @settings(deadline=None, max_examples=300)
    @given(st.data())
    def test_matches_scalar_rule_bit_for_bit(self, data):
        # Few distinct small values make ties; the wide range reaches 2**53.
        value = st.integers(0, 3) | st.integers(-2**53, 2**53) | st.sampled_from([2**53, -2**53])
        groups = data.draw(st.lists(st.lists(value, max_size=9), max_size=8))
        n_groups = len(groups) + data.draw(st.integers(0, 2))
        pairs = data.draw(st.permutations([(g, v) for g, values in enumerate(groups)
                                           for v in values]))
        block = grouped_quantiles5(np.array([g for g, _ in pairs], dtype=np.int64),
                                   np.array([v for _, v in pairs], dtype=np.int64), n_groups)
        assert block.shape == (n_groups, 5) and block.dtype == np.float64
        for g in range(n_groups):
            values = groups[g] if g < len(groups) else []
            expected = np.array(reference_quantiles5(values), dtype=np.float64)
            assert block[g].tobytes() == expected.tobytes(), (g, values)
            assert np.array(quantiles5(values)).tobytes() == expected.tobytes()


def assignment(mapping):
    return StanceAssignment.from_truth(mapping)


def build_case():
    """Period 0 = [0, 100). amy posts, everyone piles on."""
    entries = [
        Entry("a1", "amy", "alpha beta", 10),           # amy post
        Entry("b1", "ben", "beta", 20, "a1"),           # ben comments on amy
        Entry("c1", "cat", "gamma", 30, "b1"),          # cat replies to ben
        Entry("a2", "amy", "delta", 40, "b1"),          # amy comments on ben
        Entry("a3", "amy", "echo", 50, "a2"),           # auto-comment (on own a2)
        Entry("d1", "dan", "zeta", 60, "a3"),           # dan deep reply
    ]
    partition = TimePartition((0, 100))
    forest = build_forest(entries)
    stances = assignment({
        ("amy", 0): P, ("ben", 0): A, ("cat", 0): P, ("dan", 0): N,
    })
    index = build_period_user_index(forest, partition, stances)
    return forest, index, stances


class TestFS1:
    def test_reference_example(self):
        # one post with reply counts and two comments: counts {2, 0, 1}
        entries = [
            Entry("p", "amy", "", 10),
            Entry("r1", "ben", "", 20, "p"),
            Entry("r2", "cat", "", 30, "r1"),
            Entry("c1", "amy", "", 40, "r1"),     # amy comment, 1 reply below
            Entry("r3", "ben", "", 50, "c1"),
            Entry("c2", "amy", "", 60, "r3"),     # amy comment, no replies
        ]
        # p subtree: r1, r2, c1, r3, c2 -> but replies to p exclude none: 5?
        # Use a cleaner fixture: separate threads per entry.
        entries = [
            Entry("p", "amy", "", 10),
            Entry("x1", "ben", "", 11, "p"),
            Entry("x2", "cat", "", 12, "p"),
            Entry("q", "ben", "", 20),
            Entry("c1", "amy", "", 21, "q"),
            Entry("y1", "cat", "", 22, "c1"),
            Entry("r", "cat", "", 30),
            Entry("c2", "amy", "", 31, "r"),
        ]
        partition = TimePartition((0, 100))
        forest = build_forest(entries)
        stances = assignment({(u, 0): N for u in ("amy", "ben", "cat")})
        index = build_period_user_index(forest, partition, stances)
        fv = tuple(compute_fs1([("amy", 0)], forest, index)[0])
        initiated, submitted = fv[0], fv[1]
        assert (initiated, submitted) == (1.0, 2.0)
        assert fv[2:7] == (0.0, 0.5, 1.0, 1.5, 2.0)

    def test_lonely_post(self):
        entries = [Entry("p", "amy", "", 10)]
        partition = TimePartition((0, 100))
        forest = build_forest(entries)
        stances = assignment({("amy", 0): A})
        index = build_period_user_index(forest, partition, stances)
        fv = tuple(compute_fs1([("amy", 0)], forest, index)[0])
        assert fv[:7] == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_auto_comments_excluded(self):
        forest, index, stances = build_case()
        fv = tuple(compute_fs1([("amy", 0)], forest, index)[0])
        # a1 post; a2 comment; a3 is an auto-comment so not counted
        assert fv[0] == 1.0
        assert fv[1] == 1.0

    def test_inactive_user_rejected(self):
        forest, index, stances = build_case()
        with pytest.raises(ValueError):
            compute_fs1([("ghost", 0)], forest, index)

    def test_symbolic_count(self):
        assert SYMBOLIC_COUNTS["FS1"] == 8
        forest, index, stances = build_case()
        fv = tuple(compute_fs1([("amy", 0)], forest, index)[0])
        assert len(fv) + 3 == numeric_dim("FS1") == 10


class TestFS2:
    def test_single_post_all_pro_replies(self):
        entries = [Entry("p", "amy", "", 10)]
        entries += [Entry(f"r{i}", f"fan{i}", "", 20 + i, "p") for i in range(4)]
        partition = TimePartition((0, 100))
        forest = build_forest(entries)
        stances = assignment({("amy", 0): N, **{(f"fan{i}", 0): P for i in range(4)}})
        index = build_period_user_index(forest, partition, stances)
        fv = tuple(compute_fs2([("amy", 0)], forest, index, stances)[0])
        names = schema_columns("FS2")
        row = dict(zip(names, fv))
        for q in range(1, 6):
            assert row[f"R_t^{{P{q}}}"] == 4.0
            assert row[f"R_t^{{A{q}}}"] == 0.0
            assert row[f"R_t^{{N{q}}}"] == 0.0

    def test_comment_under_against_author(self):
        forest, index, stances = build_case()
        fv = tuple(compute_fs2([("amy", 0)], forest, index, stances)[0])
        names = schema_columns("FS2")
        row = dict(zip(names, fv))
        # amy's one counted comment (a2) sits under ben (Against)
        assert row["CS_t^A"] == 1.0
        assert row["CS_t^P"] == 0.0
        assert row["CS_t^N"] == 0.0

    def test_missing_stance_for_reply_author_rejected(self):
        forest, full_index, stances = build_case()
        partial = assignment({("amy", 0): P, ("ben", 0): A, ("cat", 0): P})
        index = build_period_user_index(forest, TimePartition((0, 100)), partial)
        # dan replies below amy's comment a2 and is in amy's only thread:
        # FS1 does not need dan's stance, FS2 and FS3 do.
        fs1 = tuple(compute_fs1([("amy", 0)], forest, index)[0])
        assert fs1 == tuple(compute_fs1([("amy", 0)], forest, full_index)[0])
        with pytest.raises(ValueError):
            compute_fs2([("amy", 0)], forest, index, partial)
        with pytest.raises(ValueError):
            compute_fs3([("amy", 0)], forest, index, partial)

    def test_symbolic_count(self):
        assert SYMBOLIC_COUNTS["FS2"] == 19
        forest, index, stances = build_case()
        fv = tuple(compute_fs2([("amy", 0)], forest, index, stances)[0])
        assert len(fv) + 3 == numeric_dim("FS2") == 21


class TestFS3:
    def test_single_thread_composition(self):
        # thread entries in period: 3 Against, 1 Pro, 0 Neutral
        entries = [
            Entry("p", "ann", "", 10),
            Entry("c1", "bob", "", 11, "p"),
            Entry("c2", "cal", "", 12, "p"),
            Entry("c3", "pat", "", 13, "c1"),
        ]
        partition = TimePartition((0, 100))
        forest = build_forest(entries)
        stances = assignment({("ann", 0): A, ("bob", 0): A, ("cal", 0): A,
                              ("pat", 0): P})
        index = build_period_user_index(forest, partition, stances)
        fv = tuple(compute_fs3([("pat", 0)], forest, index, stances)[0])
        row = dict(zip(schema_columns("FS3"), fv))
        for q in range(1, 6):
            assert row[f"UP_t^{{A{q}}}"] == 3.0
            assert row[f"UP_t^{{P{q}}}"] == 1.0
            assert row[f"UP_t^{{N{q}}}"] == 0.0

    def test_two_threads_interpolate(self):
        entries = [
            Entry("p1", "ann", "", 10),
            Entry("k1", "u", "", 11, "p1"),
            Entry("p2", "ann", "", 20),
            Entry("k2", "v", "", 21, "p2"),
            Entry("k3", "w", "", 22, "p2"),
            Entry("k4", "x", "", 23, "p2"),
            Entry("k5", "y", "", 24, "p2"),
            Entry("k6", "z", "", 25, "p2"),
        ]
        partition = TimePartition((0, 100))
        forest = build_forest(entries)
        mapping = {("ann", 0): P}
        for user in "uvwxyz":
            mapping[(user, 0)] = A
        stances = assignment(mapping)
        index = build_period_user_index(forest, partition, stances)
        # Against counts per thread: {1, 5} -> wait, p1 has k1 (1 A),
        # p2 has k2..k6 (5 A); ann herself is P in both.
        fv = tuple(compute_fs3([("ann", 0)], forest, index, stances)[0])
        row = dict(zip(schema_columns("FS3"), fv))
        assert [row[f"UP_t^{{A{q}}}"] for q in range(1, 6)] == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert [row[f"UP_t^{{P{q}}}"] for q in range(1, 6)] == [1.0, 1.0, 1.0, 1.0, 1.0]

    def test_own_entries_counted_in_composition(self):
        forest, index, stances = build_case()
        fv = tuple(compute_fs3([("dan", 0)], forest, index, stances)[0])
        row = dict(zip(schema_columns("FS3"), fv))
        # the single thread holds amy(P) x3, ben(A), cat(P), dan(N)
        assert row["UP_t^{P1}"] == 4.0
        assert row["UP_t^{A1}"] == 1.0
        assert row["UP_t^{N1}"] == 1.0

    def test_symbolic_count(self):
        assert SYMBOLIC_COUNTS["FS3"] == 16
        forest, index, stances = build_case()
        fv = tuple(compute_fs3([("amy", 0)], forest, index, stances)[0])
        assert len(fv) + 3 == numeric_dim("FS3") == 18


class TestVocabAndFS0:
    def test_most_frequent_first(self):
        entries = [Entry("a", "u", "brexit brexit brexit vote", 10),
                   Entry("b", "v", "brexit vote deal", 20, "a")]
        vocab = build_vocab_top_words(entries, limit=3)
        assert vocab[0] == "brexit"

    def test_tie_breaks_lexicographically(self):
        entries = [Entry("a", "u", "zebra apple", 10)]
        vocab = build_vocab_top_words(entries, limit=2)
        assert vocab == ["appl", "zebra"]

    def test_short_vocab_returned_whole(self):
        entries = [Entry("a", "u", "one token", 10)]
        vocab = build_vocab_top_words(entries, limit=100)
        assert len(vocab) == 2

    def test_empty_document_gives_zeros(self):
        partition = TimePartition((0, 100))
        entries = [Entry("a", "amy", "", 10)]
        docs = build_document_index(entries, partition)
        vocab = ["brexit"]
        fv = tuple(compute_fs0([("amy", 0)], vocab, docs, width=100)[0])
        assert fv == tuple([0.0] * 100)
        assert len(fv) + 3 == numeric_dim("FS0") == 103

    def test_word_in_every_document_has_unit_idf(self):
        partition = TimePartition((0, 100))
        entries = [Entry("a", "amy", "brexit brexit", 10),
                   Entry("b", "ben", "brexit", 20, "a")]
        docs = build_document_index(entries, partition)
        vocab = ["brexit"]
        block = compute_fs0([("amy", 0), ("ben", 0)], vocab, docs, width=100)
        assert block[0, 0] == 2.0  # tf * idf = 2 * 1
        assert block[1, 0] == 1.0

    def test_idf_formula(self):
        partition = TimePartition((0, 100))
        entries = [Entry("a", "amy", "brexit", 10),
                   Entry("b", "ben", "deal", 20, "a"),
                   Entry("c", "cat", "deal", 30, "a")]
        docs = build_document_index(entries, partition)
        idf = [ln(4 / 2) + 1, ln(4 / 3) + 1]  # df 1 and 2 among D = 3 documents
        block = compute_fs0([("amy", 0), ("ben", 0)], ["brexit", "deal"], docs, width=2)
        assert block.tolist() == [[idf[0], 0.0], [0.0, idf[1]]]

    def test_documents_that_are_not_keys_count_in_idf(self):
        # cat's document is no key, yet it is one of D = 3 documents and
        # one of the two with "deal"; a key with no document gets zeros.
        partition = TimePartition((0, 100))
        entries = [Entry("a", "amy", "brexit", 10),
                   Entry("b", "ben", "deal deal", 20, "a"),
                   Entry("c", "cat", "deal", 30, "a")]
        docs = build_document_index(entries, partition)
        assert {key: [e.id for e in group] for key, group in docs.items()} == {
            ("amy", 0): ["a"], ("ben", 0): ["b"], ("cat", 0): ["c"]}
        block = compute_fs0([("ben", 0), ("zed", 0), ("ben", 0)], ["brexit", "deal"], docs,
                            width=3)
        deal = 2 * (ln(4 / 3) + 1)
        assert block.tolist() == [[0.0, deal, 0.0], [0.0, 0.0, 0.0], [0.0, deal, 0.0]]

    def test_counts_into_the_given_block(self):
        partition = TimePartition((0, 100))
        entries = [Entry("a", "amy", "brexit deal", 10), Entry("b", "ben", "deal", 20, "a")]
        docs = build_document_index(entries, partition)
        values = np.full((2, 5), 7.0)
        block = compute_fs0([("amy", 0), ("ben", 0)], ["brexit", "deal"], docs, width=3,
                            out=values[:, :3])
        assert np.shares_memory(block, values)
        assert values[:, 3:].tolist() == [[7.0, 7.0], [7.0, 7.0]]
        assert np.array_equal(block, compute_fs0([("amy", 0), ("ben", 0)],
                                                 ["brexit", "deal"], docs, width=3))

    def test_symbolic_count(self):
        assert SYMBOLIC_COUNTS["FS0"] == 101


class TestUnions:
    def _tables(self):
        forest, index, stances = build_case()
        partition = TimePartition((0, 100))
        return extract_all(forest, partition, stances, sets=("FS0", "FS1", "FS2", "FS3"))

    def test_fs4_dimensions(self):
        tables = self._tables()
        fs4 = assemble_union([tables["FS1"], tables["FS2"], tables["FS3"]], "FS4")
        assert fs4.values.shape == (len(tables["FS1"]), numeric_dim("FS4")) == (4, 43)
        assert SYMBOLIC_COUNTS["FS4"] == 41

    def test_fs5_dimensions(self):
        tables = self._tables()
        fs5 = assemble_union(list(tables.values()), "FS5")
        assert fs5.values.shape[1] == numeric_dim("FS5") == 143
        assert SYMBOLIC_COUNTS["FS5"] == 141

    def test_onehot_shared_once(self):
        tables = self._tables()
        fs4 = assemble_union([tables["FS1"], tables["FS2"], tables["FS3"]], "FS4")
        assert fs4.users == tables["FS1"].users
        assert (fs4.values[:, :7] == tables["FS1"].values[:, :7]).all()
        assert (fs4.values[:, 7:25] == tables["FS2"].values[:, :18]).all()
        assert (fs4.values[:, 25:40] == tables["FS3"].values[:, :15]).all()
        assert (fs4.values[:, 40:] == tables["FS1"].values[:, -3:]).all()
        assert (fs4.values[:, 40:].sum(axis=1) == 1.0).all()

    def test_matches_extract_all(self):
        forest, _, stances = build_case()
        tables = extract_all(forest, TimePartition((0, 100)), stances)
        assert assemble_union([tables[s] for s in ("FS1", "FS2", "FS3")], "FS4") == tables["FS4"]
        assert assemble_union([tables[s] for s in ("FS3", "FS0", "FS2", "FS1")], "FS5") \
            == tables["FS5"]

    def test_mismatched_periods_rejected(self):
        tables = self._tables()
        moved = dataclasses.replace(tables["FS2"], periods=tables["FS2"].periods + 5)
        with pytest.raises(ValueError, match="same users and periods"):
            assemble_union([tables["FS1"], moved, tables["FS3"]], "FS4")

    def test_mismatched_users_rejected(self):
        tables = self._tables()
        renamed = dataclasses.replace(tables["FS3"], users=tables["FS3"].users[::-1])
        with pytest.raises(ValueError, match="same users and periods"):
            assemble_union([tables["FS1"], tables["FS2"], renamed], "FS4")

    def test_mismatched_onehot_rejected(self):
        tables = self._tables()
        values = tables["FS2"].values.copy()
        values[0, -3:] = np.roll(values[0, -3:], 1)
        flipped = dataclasses.replace(tables["FS2"], values=values)
        with pytest.raises(ValueError, match="current stance"):
            assemble_union([tables["FS1"], flipped, tables["FS3"]], "FS4")

    def test_missing_constituents_rejected(self):
        tables = self._tables()
        with pytest.raises(ValueError, match=r"FS4 needs constituent sets \['FS2'\]"):
            assemble_union([tables["FS1"], tables["FS3"]], "FS4")
        with pytest.raises(ValueError, match=r"FS5 needs constituent sets \['FS0'\]"):
            assemble_union([tables["FS1"], tables["FS2"], tables["FS3"]], "FS5")
        with pytest.raises(ValueError, match="not a union set"):
            assemble_union(list(tables.values()), "FS3")


def naive_user_period_features(user, period, entries, cutoffs, stance_of):
    """Index-free oracle: recompute FS1-FS3 numbers by scanning all entries."""
    lo, hi = cutoffs[period], cutoffs[period + 1]
    by_id = {e.id: e for e in entries}

    def in_period(e):
        return lo <= e.timestamp < hi

    def descendants(root_id):
        out = []
        frontier = {root_id}
        while frontier:
            nxt = {e.id for e in entries if e.parent_id in frontier}
            out.extend(nxt)
            frontier = nxt
        return out

    def thread_root(e):
        while e.parent_id is not None and e.parent_id in by_id:
            e = by_id[e.parent_id]
        return e.id

    mine = [e for e in entries if e.author == user and in_period(e)]
    posts = [e for e in mine if e.parent_id is None]
    comments = [
        e for e in mine
        if e.parent_id is not None
        and not (e.parent_id in by_id and by_id[e.parent_id].author == user)
    ]
    own = sorted(posts + comments, key=lambda e: (e.timestamp, e.id))

    reply_counts = []
    reply_by_stance = {s: [] for s in STANCE_ORDER}
    for mi in own:
        replies = [by_id[d] for d in descendants(mi.id) if in_period(by_id[d])]
        reply_counts.append(len(replies))
        for s in STANCE_ORDER:
            reply_by_stance[s].append(
                sum(1 for r in replies if stance_of[(r.author, period)] is s))

    sent = {s: 0 for s in STANCE_ORDER}
    for c in comments:
        parent = by_id.get(c.parent_id)
        if parent is None:
            bucket = N
        else:
            bucket = stance_of.get((parent.author, period))
            if bucket is None:
                parent_period = None
                for j in range(len(cutoffs) - 1):
                    if cutoffs[j] <= parent.timestamp < cutoffs[j + 1]:
                        parent_period = j
                bucket = stance_of.get((parent.author, parent_period), N)
        sent[bucket] += 1

    threads = sorted({thread_root(e) for e in mine})
    comp = {s: [] for s in STANCE_ORDER}
    for root in threads:
        members = [by_id[d] for d in descendants(root) if in_period(by_id[d])]
        if in_period(by_id[root]):
            members.append(by_id[root])
        for s in STANCE_ORDER:
            comp[s].append(sum(1 for m in members
                               if stance_of[(m.author, period)] is s))

    fs1 = (float(len(posts)), float(len(comments)), *quantiles5(reply_counts))
    fs2 = tuple(float(sent[s]) for s in STANCE_ORDER)
    for s in STANCE_ORDER:
        fs2 = fs2 + quantiles5(reply_by_stance[s])
    fs3 = ()
    for s in STANCE_ORDER:
        fs3 = fs3 + quantiles5(comp[s])
    return fs1, fs2, fs3


class TestNaiveOracleEquivalence:
    def test_random_corpora_match_exactly(self):
        rng = random.Random(77)
        for trial in range(12):
            entries = []
            for t in range(rng.randint(1, 4)):
                entries.extend(random_tree_entries(
                    rng, rng.randint(1, 50), n_users=6,
                    span=90, start=rng.choice([5, 105, 205]),
                    prefix=f"tr{trial}_{t}_"))
            partition = TimePartition((0, 100, 200, 300))
            forest = build_forest(entries)
            stances = random_stances(rng, entries, partition)
            index = build_period_user_index(forest, partition, stances)
            for period in range(partition.n_periods):
                for user in index.users(period):
                    fs1 = tuple(compute_fs1([(user, period)], forest, index)[0])
                    fs2 = tuple(compute_fs2([(user, period)], forest, index, stances)[0])
                    fs3 = tuple(compute_fs3([(user, period)], forest, index, stances)[0])
                    n1, n2, n3 = naive_user_period_features(
                        user, period, entries, partition.cutoffs, stances.stance)
                    assert fs1 == n1
                    assert fs2 == n2
                    assert fs3 == n3

    def test_synthetic_corpus_matches(self):
        config = SyntheticConfig(n_users=20, n_periods=3, threads_per_period=3,
                                 entries_per_user=2, hashtag_prob=0.0)
        corpus = generate_synthetic_corpus(config, seed=4)
        assert len(corpus.entries) <= 200
        forest = build_forest(corpus.entries)
        stances = StanceAssignment.from_truth(corpus.stances)
        index = build_period_user_index(forest, corpus.partition, stances)
        for period in range(corpus.partition.n_periods):
            for user in index.users(period):
                fs1 = tuple(compute_fs1([(user, period)], forest, index)[0])
                fs2 = tuple(compute_fs2([(user, period)], forest, index, stances)[0])
                fs3 = tuple(compute_fs3([(user, period)], forest, index, stances)[0])
                n1, n2, n3 = naive_user_period_features(
                    user, period, corpus.entries, corpus.partition.cutoffs,
                    corpus.stances)
                assert fs1 == n1
                assert fs2 == n2
                assert fs3 == n3

    @staticmethod
    def _assert_matches_oracle(entries, partition, stances):
        forest = build_forest(entries)
        index = build_period_user_index(forest, partition, stances)
        checked = 0
        for period in range(partition.n_periods):
            for user in index.users(period):
                n1, n2, n3 = naive_user_period_features(
                    user, period, entries, partition.cutoffs, stances.stance)
                assert tuple(compute_fs1([(user, period)], forest, index)[0]) == n1
                assert tuple(compute_fs2([(user, period)], forest, index, stances)[0]) == n2
                assert tuple(compute_fs3([(user, period)], forest, index, stances)[0]) == n3
                checked += 1
        return checked

    def test_chain_biased_synthetic_corpus_matches(self):
        config = SyntheticConfig(n_users=30, n_periods=2, threads_per_period=2,
                                 entries_per_user=2, chain_bias=1.0)
        corpus = generate_synthetic_corpus(config, seed=5)
        forest = build_forest(corpus.entries)
        depth = max(len(d.entries) for root in forest.roots
                    for d in extract_diffusions(forest, root))
        assert depth >= 20
        stances = StanceAssignment.from_truth(corpus.stances)
        assert self._assert_matches_oracle(corpus.entries, corpus.partition, stances) > 0

    @staticmethod
    def _assert_tables_match_oracle(entries, partition, stances):
        tables = extract_all(build_forest(entries), partition, stances,
                             sets=("FS1", "FS2", "FS3"))
        keys = list(zip(tables["FS1"].users, tables["FS1"].periods.tolist()))
        active = {(e.author, partition.period_of(e.timestamp)) for e in entries
                  if partition.period_of(e.timestamp) is not None}
        assert sorted(keys, key=lambda k: (k[1], k[0])) == keys
        assert set(keys) == {key for key in active if key[0] != SENTINEL_AUTHOR}
        for row, (user, period) in enumerate(keys):
            expected = naive_user_period_features(
                user, period, entries, partition.cutoffs, stances.stance)
            for set_id, values in zip(("FS1", "FS2", "FS3"), expected):
                assert tuple(tables[set_id].values[row, :-3].tolist()) == values, \
                    (set_id, user, period)
        return len(keys)

    def test_multi_row_tables_match_oracle(self):
        # Trees start before the range and run past it, so parents and
        # repliers fall outside it; u0 writes as the sentinel author.
        rng = random.Random(31)
        for trial in range(8):
            entries = []
            for t in range(rng.randint(2, 4)):
                entries.extend(random_tree_entries(
                    rng, rng.randint(1, 60), n_users=6, span=250,
                    start=rng.choice([-40, 5, 105]), prefix=f"mr{trial}_{t}_"))
            entries = [dataclasses.replace(e, author=SENTINEL_AUTHOR) if e.author == "u0"
                       else e for e in entries]
            partition = TimePartition((0, 100, 200))
            stances = random_stances(rng, entries, partition)
            assert self._assert_tables_match_oracle(entries, partition, stances) > 1
        config = SyntheticConfig(n_users=30, n_periods=2, threads_per_period=2,
                                 entries_per_user=2, chain_bias=1.0)
        corpus = generate_synthetic_corpus(config, seed=6)
        stances = StanceAssignment.from_truth(corpus.stances)
        assert self._assert_tables_match_oracle(
            corpus.entries, corpus.partition, stances) > 20

    def test_deep_chain_across_period_boundary_matches(self):
        # A 300-deep reply chain, one entry per second, cut into two periods
        # halfway down, with a short side branch every 50 entries.
        rng = random.Random(9)
        entries = [Entry("e0", "u0", "", 0)]
        for i in range(1, 300):
            entries.append(Entry(f"e{i}", f"u{rng.randrange(7)}", "", i, f"e{i - 1}"))
        for i in range(0, 300, 50):
            entries.append(Entry(f"b{i}", f"u{rng.randrange(7)}", "", i, f"e{i}"))
        partition = TimePartition((0, 150, 300))
        stances = random_stances(rng, entries, partition)
        assert self._assert_matches_oracle(entries, partition, stances) > 7


def test_extract_all_needs_every_current_stance():
    forest, _, stances = build_case()
    partial = assignment({k: v for k, v in stances.stance.items() if k[0] != "cat"})
    with pytest.raises(ValueError, match=r"^no stance labeled for 'cat' in period 0$"):
        extract_all(forest, TimePartition((0, 100)), partial, sets=("FS1",))


@st.composite
def hostile_forests(draw):
    """Entries on the partition (0, 100, 200) with dangling parents, an optional
    parent-link cycle, auto-comments, sentinel authors and roots before the
    range; the first entry is in range. Children are never earlier than their
    parent, so no timestamp is clamped and the oracle reads the same trees."""
    users = ["u0", "u1", "u2", "u3", "u4", SENTINEL_AUTHOR]
    entries = []
    for i in range(draw(st.integers(1, 24))):
        kind = draw(st.sampled_from(["post", "reply", "auto", "dangling"]) if entries
                    else st.just("post"))
        author = draw(st.sampled_from(users))
        if kind in ("reply", "auto"):
            parent = entries[draw(st.integers(0, len(entries) - 1))]
            author = parent.author if kind == "auto" else author
            entries.append(Entry(f"e{i}", author, "", parent.timestamp + draw(st.integers(0, 150)),
                                 parent.id))
        else:
            stamp = draw(st.integers(-60, 220) if entries else st.integers(0, 199))
            entries.append(Entry(f"e{i}", author, "", stamp,
                                 None if kind == "post" else f"gone{i}"))
    cycle = draw(st.integers(0, 3))
    if cycle:
        stamp = draw(st.integers(0, 190))
        for k in range(cycle + 1):  # c0 -> c1 -> ... -> c0, plus a reply to c0
            entries.append(Entry(f"c{k}", draw(st.sampled_from(users)), "", stamp,
                                 f"c{(k + 1) % (cycle + 1)}"))
        entries.append(Entry("r", draw(st.sampled_from(users)), "", stamp + 5, "c0"))
    return draw(st.permutations(entries)), cycle > 0


def expected_offenders(forest, partition, stances, keys):
    """The messages FS2 and FS3 must raise for `keys`, or None: each names the
    first tally with unlabeled authors, at the lowest row, then the entry's
    (timestamp, id) for FS2 and the thread id for FS3."""
    def period(eid):
        return partition.period_of(forest.entry_index[eid].timestamp)

    def below(eid):
        return [d for kid in forest.children[eid] for d in (kid, *below(kid))]

    def unlabeled(ids, j):
        return sum(1 for d in ids
                   if period(d) == j and stances.get(forest.entry_index[d].author, j) is None)

    fs2 = fs3 = None
    for user, j in keys:
        mine = [e for e in forest.entry_index.values() if e.author == user and period(e.id) == j]
        counted = sorted((e for e in mine if e.parent_id not in forest.entry_index
                          or forest.entry_index[e.parent_id].author != user),
                         key=lambda e: (e.timestamp, e.id))
        threads = sorted({thread_root(forest, e.id) for e in mine})
        tail = (f" have an author with no stance labeled in period {j}; "
                "labeling must precede feature extraction")
        fs2 = fs2 or next((f"{n} in-period repl(ies) to {e.id!r}{tail}" for e in counted
                           if (n := unlabeled(below(e.id), j))), None)
        fs3 = fs3 or next((f"{n} entr(ies) of thread {t!r}{tail}" for t in threads
                           if (n := unlabeled([t, *below(t)], j))), None)
    return fs2, fs3


class TestHostileForestProperty:
    @settings(deadline=None, max_examples=150)
    @given(st.data())
    def test_any_key_list_matches_the_sorted_call_and_the_oracle(self, data):
        entries, has_cycle = data.draw(hostile_forests())
        partition = TimePartition((0, 100, 200))
        forest = build_forest(entries)
        active = sorted({(e.author, partition.period_of(e.timestamp)) for e in entries
                         if partition.period_of(e.timestamp) is not None},
                        key=lambda key: (key[1], key[0]))
        stances = assignment({key: data.draw(st.sampled_from(STANCE_ORDER)) for key in active})
        index = build_period_user_index(forest, partition, stances)
        assert list(index.keys) == active
        calls = (lambda keys: compute_fs1(keys, forest, index),
                 lambda keys: compute_fs2(keys, forest, index, stances),
                 lambda keys: compute_fs3(keys, forest, index, stances))
        full = [call(active) for call in calls]
        keys = data.draw(st.permutations(
            active + data.draw(st.lists(st.sampled_from(active), max_size=4))))
        for call, block in zip(calls, full):
            rows = call(keys)
            assert rows.tobytes() == block[[active.index(key) for key in keys]].tobytes()
        if not has_cycle:  # the oracle walks parent links, which never end on a cycle
            for row, (user, period) in enumerate(active):
                expected = naive_user_period_features(user, period, entries,
                                                      partition.cutoffs, stances.stance)
                assert tuple(tuple(block[row].tolist()) for block in full) == expected

    @settings(deadline=None, max_examples=150)
    @given(st.data())
    def test_first_unlabeled_offender_named_as_before(self, data):
        entries, _ = data.draw(hostile_forests())
        partition = TimePartition((0, 100, 200))
        forest = build_forest(entries)
        active = sorted({(e.author, partition.period_of(e.timestamp)) for e in entries
                         if partition.period_of(e.timestamp) is not None})
        stances = assignment({key: data.draw(st.sampled_from(STANCE_ORDER)) for key in active
                              if data.draw(st.booleans())})
        index = build_period_user_index(forest, partition, stances)
        keys = data.draw(st.lists(st.sampled_from(active), min_size=1, max_size=6))
        for call, message in zip((compute_fs2, compute_fs3),
                                 expected_offenders(forest, partition, stances, keys)):
            if message is None:
                call(keys, forest, index, stances)
            else:
                with pytest.raises(ValueError) as raised:
                    call(keys, forest, index, stances)
                assert str(raised.value) == message


class TestIndexChecks:
    def test_index_of_another_assignment_rejected(self):
        forest, index, stances = build_case()
        other = assignment(dict(stances.stance))
        with pytest.raises(ValueError):
            compute_fs2([("amy", 0)], forest, index, other)
        with pytest.raises(ValueError):
            compute_fs3([("amy", 0)], forest, index, other)

    def test_first_unlabeled_offender_named(self):
        # zed has no stance. Row order (amy, ben) comes first, then FS2 takes
        # amy's entries in (timestamp, id) order and FS3 her threads sorted.
        entries = [
            Entry("a", "ben", "", 5), Entry("za", "zed", "", 6, "a"),
            Entry("p1", "amy", "", 10), Entry("z1", "zed", "", 11, "p1"),
            Entry("p0", "amy", "", 30), Entry("z0", "zed", "", 31, "p0"),
        ]
        forest = build_forest(entries)
        stances = assignment({("amy", 0): P, ("ben", 0): A})
        index = build_period_user_index(forest, TimePartition((0, 100)), stances)
        keys = [("amy", 0), ("ben", 0)]
        tail = " have an author with no stance labeled in period 0; " \
               "labeling must precede feature extraction$"
        with pytest.raises(ValueError, match="^1 in-period repl\\(ies\\) to 'p1'" + tail):
            compute_fs2(keys, forest, index, stances)
        with pytest.raises(ValueError, match="^1 entr\\(ies\\) of thread 'p0'" + tail):
            compute_fs3(keys, forest, index, stances)

    def test_no_active_key(self):
        # Every entry falls outside the range: no rows, and each block keeps its width.
        forest = build_forest([Entry("a", "amy", "", 500), Entry("b", "ben", "", 600, "a")])
        tables = extract_all(forest, TimePartition((0, 100)), assignment({}),
                             sets=("FS1", "FS2", "FS3", "FS4"))
        assert {s: t.values.shape for s, t in tables.items()} == {
            "FS1": (0, 10), "FS2": (0, 21), "FS3": (0, 18), "FS4": (0, 43)}

    def test_child_earlier_than_parent_rejected(self):
        forest, _, stances = build_case()
        forest.entry_index["d1"] = Entry("d1", "dan", "zeta", 5, "a3")
        with pytest.raises(ValueError, match="earlier than its parent"):
            build_period_user_index(forest, TimePartition((0, 100)), stances)

    def test_timestamp_beyond_int64_rejected(self):
        forest = build_forest([Entry("big", "amy", "x", 2**63, None)])
        with pytest.raises(ValueError, match="'big' has a timestamp outside the int64 range"):
            build_period_user_index(forest, TimePartition((0, 100)), StanceAssignment({}))


class TestInvariants:
    def test_identities_on_random_corpora(self):
        rng = random.Random(13)
        names = {sid: schema_columns(sid) for sid in ("FS1", "FS2")}
        for trial in range(10):
            entries = random_tree_entries(rng, rng.randint(2, 60), n_users=5,
                                          span=190, start=5, prefix=f"iv{trial}_")
            partition = TimePartition((0, 100, 200))
            forest = build_forest(entries)
            stances = random_stances(rng, entries, partition)
            index = build_period_user_index(forest, partition, stances)
            for period in range(2):
                for user in index.users(period):
                    fs1 = dict(zip(names["FS1"],
                                   tuple(compute_fs1([(user, period)], forest, index)[0])))
                    fs2 = dict(zip(names["FS2"],
                                   tuple(compute_fs2([(user, period)], forest, index, stances)[0])))
                    assert fs2["CS_t^A"] + fs2["CS_t^N"] + fs2["CS_t^P"] == fs1["CS_t"]

    def test_entry_order_irrelevant(self):
        rng = random.Random(3)
        entries = random_tree_entries(rng, 40, n_users=5, span=90, start=5)
        partition = TimePartition((0, 100))
        stances = random_stances(rng, entries, partition)
        reference = None
        for _ in range(3):
            shuffled = entries[:]
            rng.shuffle(shuffled)
            forest = build_forest(shuffled)
            tables = extract_all(forest, partition, stances,
                                 sets=("FS1", "FS2", "FS3"))
            if reference is None:
                reference = tables
            else:
                assert tables == reference

    def test_against_only_threads_dominate(self):
        # u engages only where every other entry is Against-authored.
        entries = [Entry("p", "u", "", 10)]
        entries += [Entry(f"c{i}", f"a{i}", "", 20 + i, "p") for i in range(5)]
        partition = TimePartition((0, 100))
        forest = build_forest(entries)
        mapping = {("u", 0): P}
        mapping.update({(f"a{i}", 0): A for i in range(5)})
        stances = assignment(mapping)
        index = build_period_user_index(forest, partition, stances)
        fv = tuple(compute_fs3([("u", 0)], forest, index, stances)[0])
        row = dict(zip(schema_columns("FS3"), fv))
        for q in range(1, 6):
            assert row[f"UP_t^{{A{q}}}"] >= row[f"UP_t^{{P{q}}}"]
            assert row[f"UP_t^{{A{q}}}"] >= row[f"UP_t^{{N{q}}}"]


class TestExportRoundTrip:
    def test_tsv_round_trip_is_exact(self):
        forest, index, stances = build_case()
        partition = TimePartition((0, 100))
        tables = extract_all(forest, partition, stances, sets=("FS0", "FS1", "FS4"))
        for set_id in ("FS0", "FS1", "FS4"):
            text = feature_table_tsv(tables[set_id])
            back = feature_table_from_tsv(text)
            assert back == tables[set_id]

    @pytest.mark.parametrize("mangle, line", [
        (lambda rows: rows[:1] + [rows[1].rsplit("\t", 1)[0]] + rows[2:], 2),
        (lambda rows: rows[:2] + [rows[2] + "\t0.0"] + rows[3:], 3),
        (lambda rows: ["user\tperiod\tset\t" + rows[0].split("\t", 3)[3]] + rows[1:], 1),
        (lambda rows: [rows[0].replace("\tf_0\t", "\tf_9\t")] + rows[1:], 1),
        (lambda rows: rows[:1] + [rows[1].replace("\t0\t", "\tzero\t", 1)] + rows[2:], 2),
        pytest.param(lambda rows: rows[:2] + [rows[2].replace("\t0\t", f"\t{2**63}\t", 1)]
                     + rows[3:], 3, id="period-overflow-3"),
    ])
    def test_malformed_table_names_the_line(self, mangle, line):
        forest, _, stances = build_case()
        tables = extract_all(forest, TimePartition((0, 100)), stances, sets=("FS1",))
        rows = feature_table_tsv(tables["FS1"]).splitlines()
        with pytest.raises(ValueError, match=f"^line {line}:"):
            feature_table_from_tsv("\n".join(mangle(rows)) + "\n")

    def test_empty_table_round_trips(self):
        empty = FeatureTable("", (), np.zeros(0, dtype=np.int64), np.zeros((0, 0)))
        assert feature_table_tsv(empty) == "user\tperiod\tset_id\n"
        assert feature_table_from_tsv(feature_table_tsv(empty)) == empty
        no_rows = extract_all(build_forest([]), TimePartition((0, 100)), assignment({}),
                              sets=("FS1",))["FS1"]
        assert len(no_rows) == 0 and no_rows.values.shape == (0, 10)
        assert feature_table_tsv(no_rows) == feature_table_tsv(empty)
        with pytest.raises(ValueError):
            feature_table_from_tsv("")

    @settings(deadline=None)
    @given(st.data())
    def test_tsv_round_trip_property(self, data):
        width = data.draw(st.integers(min_value=0, max_value=5))
        floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
            [-0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308])
        rows = data.draw(st.lists(st.tuples(
            st.text(min_size=1).filter(ingestible_author),
            st.integers(min_value=0, max_value=50),
            st.lists(floats, min_size=width, max_size=width),
            st.integers(min_value=0, max_value=2)), min_size=1, max_size=12))
        table = FeatureTable(
            data.draw(st.sampled_from(SET_IDS)),
            tuple(user for user, *_ in rows),
            np.array([period for _, period, *_ in rows], dtype=np.int64),
            np.array([[*values, *(float(i == k) for i in range(3))]
                      for *_, values, k in rows], dtype=np.float64))
        text = feature_table_tsv(table)
        back = feature_table_from_tsv(text)
        assert back == table
        assert feature_table_tsv(back) == text

    def test_mixed_set_ids_rejected(self):
        forest, _, stances = build_case()
        tables = extract_all(forest, TimePartition((0, 100)), stances, sets=("FS1",))
        rows = feature_table_tsv(tables["FS1"]).splitlines()
        rows[3] = rows[3].replace("\tFS1\t", "\tFS2\t")
        with pytest.raises(ValueError, match="^line 4: set_id 'FS2'"):
            feature_table_from_tsv("\n".join(rows) + "\n")

    def test_schema_width_matches_vectors(self):
        forest, index, stances = build_case()
        partition = TimePartition((0, 100))
        tables = extract_all(forest, partition, stances)
        for set_id, table in tables.items():
            names = schema_columns(set_id, vocab=None, vocab_width=100)
            assert len(names) == table.values.shape[1]


class TestStreaming:
    @settings(deadline=None)
    @given(st.text(alphabet="a\t\n\r\x0b\x0c\x1c\x85\u2028 "), st.integers(1, 6))
    def test_rows_are_the_nonblank_splitlines(self, text, chunk):
        assert list(features_mod._rows(text, chunk)) == \
            [(n, line) for n, line in enumerate(text.splitlines(), start=1) if line.strip()]

    def test_chunks_are_whole_rows(self, monkeypatch):
        monkeypatch.setattr(features_mod, "_TSV_CHUNK_ROWS", 2)
        forest, _, stances = build_case()
        tables = extract_all(forest, TimePartition((0, 100)), stances, vocab_width=3)
        for set_id in ("FS4", "FS5"):
            parts = [tables[part] for part in UNION_PARTS[set_id]]
            chunks = list(feature_table_chunks(set_id, parts))
            assert len(chunks) == 1 + -(-len(tables[set_id]) // 2)
            assert all(chunk.endswith("\n") for chunk in chunks)
            assert "".join(chunks) == reference_tsv(tables[set_id])


def _traced_peak(call):
    """`call()` and the peak of the memory it allocated, numpy buffers included."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _fs0_like_table():
    """3,000 x 103 FS0-like rows, in several render chunks."""
    rng = np.random.default_rng(3)
    n = 3000
    numeric = np.where(rng.random((n, 100)) < 0.2,
                       rng.integers(1, 4, (n, 100)) * (1 + rng.random(100)), 0.0)
    return FeatureTable("FS0", tuple(f"user{i % 700}" for i in range(n)),
                        np.arange(n, dtype=np.int64) % 5,
                        np.hstack([numeric, np.eye(3)[rng.integers(0, 3, n)]]))


class TestPeakMemory:
    def test_parse_fills_one_array(self):
        # Parsing into rows of Python floats peaked at 6.3x the values.
        table = _fs0_like_table()
        text = feature_table_tsv(table)
        back, peak = _traced_peak(lambda: feature_table_from_tsv(text))
        assert back == table
        assert peak <= 2.5 * table.values.nbytes

    def test_render_keeps_narrow_codes(self):
        # Coding the cells through one np.unique inverse over the whole table,
        # with intp codes, peaked at 5.95x the values here.
        table = _fs0_like_table()
        text, peak = _traced_peak(lambda: feature_table_tsv(table))
        assert text == reference_tsv(table)
        assert peak <= 3.0 * table.values.nbytes

    def test_fs0_counts_into_its_table(self):
        # Per-document Counters and a separate count matrix, gathered,
        # multiplied and stacked, peaked at 5.7x the FS0 values here.
        config = SyntheticConfig(n_users=400, n_periods=3, threads_per_period=8,
                                 words_per_entry=12)
        generated = generate_synthetic_corpus(config, seed=3)
        forest = build_forest(generated.entries)
        entries = list(forest.entry_index.values())
        vocab = build_vocab_top_words(entries, limit=100)  # caches every entry's tokens
        stances = StanceAssignment.from_truth(generated.stances)
        tables, peak = _traced_peak(lambda: extract_all(
            forest, generated.partition, stances, sets=("FS0",), vocab=vocab))
        values = tables["FS0"].values
        assert values.shape == (1200, 103) and np.count_nonzero(values[:, :100])
        assert peak <= 3.5 * values.nbytes


def reference_tsv(table):
    """`feature_table_tsv` formatting every cell of the table's own values."""
    if not len(table):
        return "user\tperiod\tset_id\n"
    header = ["user", "period", "set_id"] + [f"f_{i}" for i in range(table.values.shape[1])]
    return "\n".join(["\t".join(header)] + [
        "\t".join([user, str(period), table.set_id, *map(repr, values)])
        for user, period, values in zip(table.users, table.periods.tolist(),
                                        table.values.tolist())]) + "\n"


class TestUnionRendering:
    """A union renders from its parts' text; the bytes must be those of its values."""

    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_union_tsv_matches_per_cell_rendering(self, data):
        set_id = data.draw(st.sampled_from(sorted(UNION_PARTS)))
        n = data.draw(st.integers(min_value=0, max_value=6))
        floats = st.floats() | st.sampled_from(
            [-0.0, 0.0, 5e-324, -1e-310, 2.2250738585072014e-308, float("nan"), 1e308])
        users = tuple(data.draw(st.lists(st.text(min_size=1).filter(ingestible_author),
                                         min_size=n, max_size=n)))
        periods = np.array(data.draw(st.lists(st.integers(0, 50), min_size=n, max_size=n)),
                           dtype=np.int64)
        onehot = np.eye(3)[data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))]
        parts = []
        for part in UNION_PARTS[set_id]:
            # FS0 without numeric columns is vocab_size=0.
            width = data.draw(st.integers(min_value=0 if part == "FS0" else 1, max_value=4))
            numeric = np.array(data.draw(st.lists(
                st.lists(floats, min_size=width, max_size=width), min_size=n, max_size=n)),
                dtype=np.float64).reshape(n, width)
            # array_equal lets parts differ in the sign of a one-hot zero; the
            # union's one-hot is its first part's.
            negative = np.array(data.draw(st.lists(st.booleans(), min_size=3 * n,
                                                   max_size=3 * n)), dtype=bool)
            part_onehot = np.where(negative.reshape(n, 3) & (onehot == 0), -0.0, onehot)
            parts.append(FeatureTable(part, users, periods, np.hstack([numeric, part_onehot])))
        union = assemble_union(parts, set_id)
        # The parts' text may be rendered before, after, or never apart from the union's.
        rendered_first = data.draw(st.lists(st.sampled_from(parts), unique_by=id))
        for part in rendered_first:
            assert feature_table_tsv(part) == reference_tsv(part)
        assert feature_table_tsv(union) == reference_tsv(union)
        for part in parts:
            assert feature_table_tsv(part) == reference_tsv(part)

    def test_extracted_unions_match_per_cell_rendering(self):
        forest, _, stances = build_case()
        for vocab_width in (0, 3):
            tables = extract_all(forest, TimePartition((0, 100)), stances,
                                 vocab_width=vocab_width)
            for set_id in ("FS5", *SET_IDS):
                assert feature_table_tsv(tables[set_id]) == reference_tsv(tables[set_id])
            assert tables["FS0"].values.shape[1] == vocab_width + 3

    def test_replaced_union_renders_its_own_values(self):
        forest, _, stances = build_case()
        fs4 = extract_all(forest, TimePartition((0, 100)), stances, sets=("FS4",))["FS4"]
        assert len(fs4.parts) == 3
        moved = dataclasses.replace(fs4, values=fs4.values + 1.0)
        assert moved.parts == ()
        assert feature_table_tsv(moved) == reference_tsv(moved) != feature_table_tsv(fs4)

    @pytest.mark.parametrize("distinct, dtype", [
        (127, np.uint8), (128, np.uint16), (129, np.uint16),
        (32767, np.uint16), (32768, np.uint32), (32769, np.uint32)])
    def test_code_width_edges(self, distinct, dtype):
        # 2 x distinct crosses the uint8 and uint16 limits. The numeric block
        # holds a NaN with a payload beside the canonical NaN; the one-hot -0.0.
        payload = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)
        n = -(-distinct // 7)
        numeric = np.resize(np.concatenate([np.arange(distinct - 2) / 4, [np.nan], payload]),
                            n * 7).reshape(n, 7)
        onehot = np.eye(3)[np.arange(n) % 3]
        onehot[(onehot == 0) & (np.arange(n) % 2 == 0)[:, None]] = -0.0
        users, periods = tuple(f"u{i}" for i in range(n)), np.arange(n, dtype=np.int64) % 4
        table = FeatureTable("FS1", users, periods, np.hstack([numeric, onehot]))
        assert [codes.dtype for _, codes in table._codes] == [dtype, np.uint8]
        assert feature_table_tsv(table) == reference_tsv(table)
        others = [FeatureTable(part, users, periods, np.hstack([np.full((n, 2), 0.5), onehot]))
                  for part in ("FS2", "FS3")]
        union = assemble_union([table, *others], "FS4")
        assert feature_table_tsv(union) == reference_tsv(union)

    def test_constituent_without_onehot_rejected(self):
        forest, _, stances = build_case()
        tables = extract_all(forest, TimePartition((0, 100)), stances, sets=("FS1", "FS2"))
        narrow = FeatureTable("FS3", tables["FS1"].users, tables["FS1"].periods,
                              tables["FS1"].values[:, :2])
        with pytest.raises(ValueError, match="3-slot stance one-hot"):
            assemble_union([tables["FS1"], tables["FS2"], narrow], "FS4")


def test_sentinel_user_gets_no_vectors():
    entries = [
        Entry("p", "amy", "hello", 10),
        Entry("c", "[deleted]", "gone", 20, "p"),
    ]
    from stancecast.corpus import parse_entries
    parsed = parse_entries(
        '{"id":"p","author":"amy","body":"hello","created_utc":10,"parent_id":null}\n'
        '{"id":"c","author":null,"body":"gone","created_utc":20,"parent_id":"p"}'.splitlines())
    partition = TimePartition((0, 100))
    forest = build_forest(parsed.entries)
    stances = assignment({("amy", 0): P, ("[deleted]", 0): N})
    tables = extract_all(forest, partition, stances, sets=("FS1", "FS2"))
    assert [v.user for v in tables["FS1"]] == ["amy"]
    # but the sentinel's reply still counts toward amy's totals
    row = dict(zip(schema_columns("FS2"), tables["FS2"].values[0]))
    assert row["R_t^{N5}"] == 1.0
