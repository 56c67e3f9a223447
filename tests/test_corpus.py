import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stancecast.corpus import (
    SENTINEL_AUTHOR,
    Entry,
    TimePartition,
    build_forest,
    entries_to_jsonl,
    extract_diffusions,
    group_user_period,
    parse_entries,
    partition_periods,
)
from stancecast.features import build_period_user_index
from stancecast.stance import Stance, StanceAssignment

from conftest import ingestible_author, make_fig_entries, random_tree_entries


def record(**kwargs):
    base = {"id": "x", "author": "alice", "body": "hi", "created_utc": 10,
            "parent_id": None}
    base.update(kwargs)
    return json.dumps(base)


class TestParseEntries:
    def test_well_formed_records_pass_through(self):
        lines = [record(id=f"e{i}", created_utc=10 + i) for i in range(3)]
        result = parse_entries(lines)
        assert len(result.entries) == 3
        assert result.malformed == result.duplicates == 0
        assert [e.id for e in result.entries] == ["e0", "e1", "e2"]

    def test_missing_author_is_skipped_with_warning(self):
        bad = json.dumps({"id": "e1", "body": "hi", "created_utc": 5, "parent_id": None})
        result = parse_entries([record(id="e0"), bad])
        assert len(result.entries) == 1
        assert result.malformed == 1
        assert result.duplicates == 0

    def test_duplicate_id_keeps_first(self):
        result = parse_entries([record(id="e0", body="first"),
                                record(id="e0", body="second")])
        assert len(result.entries) == 1
        assert result.entries[0].content == "first"
        assert result.duplicates == 1

    def test_deleted_author_maps_to_sentinel(self):
        result = parse_entries([record(id="e0", author="[deleted]"),
                                record(id="e1", author=""),
                                record(id="e2", author=None)])
        assert all(e.author == SENTINEL_AUTHOR for e in result.entries)
        assert result.malformed == result.duplicates == 0

    def test_garbage_lines_counted(self):
        result = parse_entries(["not json", record(id="e0"), "{\"id\": 3}"])
        assert len(result.entries) == 1
        assert result.malformed == 2

    def test_unreadable_stream_is_fatal(self):
        def broken():
            yield record(id="e0")
            raise OSError("stream died")

        with pytest.raises(OSError):
            parse_entries(broken())

    def test_self_parent_record_is_malformed(self):
        result = parse_entries([record(id="e0", parent_id="e0")])
        assert not result.entries
        assert result.malformed == 1


class TestEntry:
    def test_self_parent_rejected(self):
        with pytest.raises(ValueError):
            Entry("a", "u", "", 0, "a")

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            Entry("", "u", "", 0)


class TestBuildForest:
    def test_reference_tree_shape(self, fig_forest):
        assert fig_forest.roots == ["n0"]
        assert fig_forest.children["n0"] == ["n1", "n2"]
        assert fig_forest.children["n1"] == ["n3"]
        assert fig_forest.children["n3"] == ["n4", "n5"]
        assert not fig_forest.orphan_roots

    def test_single_post(self):
        forest = build_forest([Entry("p", "u", "", 5)])
        assert forest.roots == ["p"]
        assert forest.children["p"] == []

    def test_unknown_parent_becomes_flagged_orphan_root(self):
        forest = build_forest([
            Entry("a", "u", "", 1),
            Entry("b", "v", "", 2, "missing"),
        ])
        assert set(forest.roots) == {"a", "b"}
        assert forest.orphan_roots == {"b"}

    def test_cycle_broken_into_orphan_roots(self):
        forest = build_forest([
            Entry("a", "u", "", 1, "b"),
            Entry("b", "v", "", 2, "a"),
            Entry("c", "w", "", 3, "a"),
        ])
        assert set(forest.roots) == {"a", "b"}
        assert forest.orphan_roots == {"a", "b"}
        assert forest.broken_cycles == 2
        # c keeps its parent link to a
        assert forest.children["a"] == ["c"]

    def test_timestamp_inversion_clamped(self):
        forest = build_forest([
            Entry("a", "u", "", 100),
            Entry("b", "v", "", 40, "a"),
            Entry("c", "w", "", 60, "b"),
        ])
        assert forest.entry_index["b"].timestamp == 100
        assert forest.entry_index["c"].timestamp == 100
        assert forest.repaired_timestamps == 2

    def test_order_insensitive(self):
        entries = make_fig_entries()
        reference = build_forest(entries)
        rng = random.Random(7)
        for _ in range(5):
            shuffled = entries[:]
            rng.shuffle(shuffled)
            assert build_forest(shuffled) == reference

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            build_forest([Entry("a", "u", "", 1), Entry("a", "v", "", 2)])


class TestDiffusions:
    def test_reference_tree_has_three(self, fig_forest):
        paths = {d.entries for d in extract_diffusions(fig_forest, "n0")}
        assert paths == {("n0", "n1", "n3", "n4"),
                         ("n0", "n1", "n3", "n5"),
                         ("n0", "n2")}

    def test_single_node(self):
        forest = build_forest([Entry("p", "u", "", 5)])
        assert [d.entries for d in extract_diffusions(forest, "p")] == [("p",)]

    def test_perfect_binary_tree_depth_three(self):
        # Brute-force oracle: enumerate root-to-leaf paths by recursion
        # over an adjacency dict built straight from the entry list.
        entries = [Entry("b0", "u", "", 0)]
        for i in range(1, 15):
            entries.append(Entry(f"b{i}", "u", "", i, f"b{(i - 1) // 2}"))
        forest = build_forest(entries)
        diffusions = extract_diffusions(forest, "b0")
        assert len(diffusions) == 8
        assert all(len(d.entries) == 4 for d in diffusions)

        children = {}
        for e in entries:
            if e.parent_id:
                children.setdefault(e.parent_id, []).append(e.id)

        def walk(node):
            if node not in children:
                return [(node,)]
            return [(node,) + rest for kid in children[node] for rest in walk(kid)]

        assert {d.entries for d in diffusions} == set(walk("b0"))

    def test_not_a_root_rejected(self, fig_forest):
        with pytest.raises(KeyError):
            extract_diffusions(fig_forest, "nope")
        with pytest.raises(ValueError):
            extract_diffusions(fig_forest, "n3")

    def test_every_root_and_only_roots_accepted(self):
        # Posts with replies, an orphan whose parent is missing, and a
        # two-entry cycle: build_forest roots the posts, the orphan and both
        # cycle entries, and each path follows the (timestamp, id) child order.
        entries = [Entry("x", "u", "", 50, "y"), Entry("c1", "u", "", 30, "p1"),
                   Entry("c2", "u", "", 25, "p1"), Entry("c3", "u", "", 40, "c1"),
                   Entry("c4", "u", "", 35, "c1"), Entry("p2", "u", "", 20),
                   Entry("o", "u", "", 15, "gone"), Entry("o1", "u", "", 16, "o"),
                   Entry("y", "u", "", 45, "x"), Entry("z", "u", "", 60, "x"),
                   Entry("p1", "u", "", 10)]
        forest = build_forest(entries)
        assert forest.roots == ["p1", "o", "p2", "y", "x"]
        assert {root: [d.entries for d in extract_diffusions(forest, root)]
                for root in forest.roots} == {
            "p1": [("p1", "c2"), ("p1", "c1", "c4"), ("p1", "c1", "c3")],
            "o": [("o", "o1")], "p2": [("p2",)], "y": [("y",)], "x": [("x", "z")]}
        for eid in sorted(set(forest.entry_index) - set(forest.roots)):
            with pytest.raises(ValueError, match=rf"^entry '{eid}' is not a thread root$"):
                extract_diffusions(forest, eid)

    def test_temporal_ordering_holds_after_repair(self):
        rng = random.Random(3)
        entries = [Entry("r", "u", "", 500)]
        for i in range(30):
            parent = rng.choice([e.id for e in entries])
            entries.append(Entry(f"k{i}", "u", "", rng.randrange(1000), parent))
        forest = build_forest(entries)
        for diffusion in extract_diffusions(forest, "r"):
            stamps = [forest.entry_index[eid].timestamp for eid in diffusion.entries]
            assert stamps == sorted(stamps)


def reply_tallies(forest, stances=None):
    """Each entry's reply tally by id, over one period that holds every entry."""
    stamps = [e.timestamp for e in forest.entry_index.values()]
    partition = TimePartition((min(stamps), max(stamps) + 1))
    index = build_period_user_index(forest, partition, stances or StanceAssignment())
    inside = np.flatnonzero(index.period >= 0)
    tallies = index.tally(index.period[inside], inside + 1, index.end[inside])
    return dict(zip([index.order[i] for i in inside.tolist()], map(tuple, tallies.tolist())))


def subtree_reply_count(forest, entry_id):
    return sum(reply_tallies(forest)[entry_id])


def _subtree_preorder(forest, eid):
    return [eid, *(e for kid in forest.children[eid] for e in _subtree_preorder(forest, kid))]


class TestSubtreeReplyCount:
    def test_reference_counts(self, fig_forest):
        assert subtree_reply_count(fig_forest, "n1") == 3
        assert subtree_reply_count(fig_forest, "n0") == 5

    def test_leaf_is_zero(self, fig_forest):
        assert subtree_reply_count(fig_forest, "n4") == 0

    def test_unknown_id(self, fig_forest):
        with pytest.raises(KeyError):
            subtree_reply_count(fig_forest, "zz")

    def test_recurrence_on_random_trees(self):
        rng = random.Random(11)
        for trial in range(20):
            entries = [e for t in range(rng.randint(1, 3))
                       for e in random_tree_entries(rng, rng.randint(1, 50),
                                                    start=rng.randrange(3),
                                                    prefix=f"x{trial}_{t}_")]
            rng.shuffle(entries)
            forest = build_forest(entries)
            # `order` is the forest's pre-order: every entry once, the roots
            # in (timestamp, id) order, each parent before its children.
            assert sorted(forest.order) == sorted(forest.entry_index)
            assert forest.roots == sorted(forest.roots,
                                          key=lambda r: (forest.entry_index[r].timestamp, r))
            position = {eid: i for i, eid in enumerate(forest.order)}
            assert all(position[eid] < position[kid]
                       for eid, kids in forest.children.items() for kid in kids)
            assert forest.order == [eid for root in forest.roots
                                    for eid in _subtree_preorder(forest, root)]
            counts = {eid: sum(t) for eid, t in reply_tallies(forest).items()}
            assert counts.keys() == forest.entry_index.keys()
            for eid in forest.entry_index:
                kids = forest.children[eid]
                assert counts[eid] == sum(1 + counts[kid] for kid in kids)


class TestDiffusionInvariants:
    def test_leaf_count_and_node_cover_on_random_trees(self):
        rng = random.Random(23)
        for trial in range(30):
            entries = random_tree_entries(rng, rng.randint(1, 50), prefix=f"y{trial}_")
            forest = build_forest(entries)
            root = forest.roots[0]
            diffusions = extract_diffusions(forest, root)
            leaves = [eid for eid in forest.entry_index if not forest.children[eid]]
            assert len(diffusions) == len(leaves)
            covered = set()
            for d in diffusions:
                covered.update(d.entries)
            assert covered == set(forest.entry_index)

    @settings(deadline=None, max_examples=100)
    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 11), st.integers(0, 50)),
                    min_size=1, max_size=10, unique_by=lambda row: row[0]))
    def test_roots_of_forests_with_cycles_and_dangling_parents(self, rows):
        # Parent 10 is missing from the corpus and 11 means a post; any other
        # parent may close a cycle. Only `forest.roots` are accepted, and each
        # root's paths are the recursive walk over the child lists, in order.
        entries = [Entry(f"e{i}", "u", "", stamp, None if up in (i, 11) else f"e{up}")
                   for i, up, stamp in rows]
        forest = build_forest(entries)

        def walk(eid):
            kids = forest.children[eid]
            return [(eid, *rest) for kid in kids for rest in walk(kid)] or [(eid,)]

        for eid in forest.entry_index:
            if eid in forest.roots:
                assert [d.entries for d in extract_diffusions(forest, eid)] == walk(eid)
            else:
                with pytest.raises(ValueError, match=rf"^entry '{eid}' is not a thread root$"):
                    extract_diffusions(forest, eid)


class TestPartition:
    def test_basic_assignment(self):
        partition = TimePartition((0, 10, 20))
        entries = [Entry("a", "u", "", 5), Entry("b", "u", "", 15)]
        result = partition_periods(entries, partition)
        assert result.by_period == {0: {"a"}, 1: {"b"}}
        assert result.discarded == 0

    def test_boundary_goes_to_later_period(self):
        partition = TimePartition((0, 10, 20))
        result = partition_periods([Entry("a", "u", "", 10)], partition)
        assert result.by_period[1] == {"a"}
        assert not result.by_period[0]

    def test_out_of_range_discarded(self):
        partition = TimePartition((10, 20))
        result = partition_periods(
            [Entry("a", "u", "", 5), Entry("b", "u", "", 20), Entry("c", "u", "", 15)],
            partition)
        assert result.discarded == 2
        assert result.by_period == {0: {"c"}}

    def test_partition_is_exact(self):
        rng = random.Random(5)
        partition = TimePartition((0, 100, 250, 400))
        entries = [Entry(f"e{i}", "u", "", rng.randrange(-50, 450)) for i in range(200)]
        result = partition_periods(entries, partition)
        assigned = [eid for ids in result.by_period.values() for eid in ids]
        assert len(assigned) == len(set(assigned))
        in_range = [e for e in entries if 0 <= e.timestamp < 400]
        assert len(assigned) == len(in_range)
        assert result.discarded == len(entries) - len(in_range)

    def test_degenerate_cutoffs_rejected(self):
        with pytest.raises(ValueError):
            TimePartition(())
        with pytest.raises(ValueError):
            TimePartition((5,))
        with pytest.raises(ValueError):
            TimePartition((5, 5))

    def test_iso_dates(self):
        partition = TimePartition.from_iso_dates(["1970-01-01", "1970-01-02"])
        assert partition.cutoffs == (0, 86400)

    def test_group_user_period_sorted(self):
        partition = TimePartition((0, 100))
        entries = [Entry("b", "u", "late", 40), Entry("a", "u", "early", 10)]
        groups = group_user_period(entries, partition)
        assert [e.id for e in groups[("u", 0)]] == ["a", "b"]


def test_jsonl_round_trip():
    entries = make_fig_entries()
    text = entries_to_jsonl(entries)
    parsed = parse_entries(text.splitlines())
    assert parsed.entries == entries
    assert parsed.malformed == parsed.duplicates == 0


_RECORDS = st.lists(st.fixed_dictionaries({
    "id": st.text(min_size=1),
    "author": st.none() | st.text(min_size=1).filter(ingestible_author),
    "body": st.text(),
    "created_utc": st.integers(min_value=0, max_value=4_000_000_000),
    "parent_id": st.none() | st.text(min_size=1),
}), max_size=12)


@settings(deadline=None)
@given(_RECORDS)
def test_jsonl_round_trip_property(records):
    lines = [json.dumps(r) for r in records if r["parent_id"] != r["id"]]
    first = parse_entries(lines)
    assert first.malformed == 0
    text = entries_to_jsonl(first.entries)
    second = parse_entries(text.splitlines())
    assert second.entries == first.entries
    assert (second.malformed, second.duplicates) == (0, 0)
    assert entries_to_jsonl(second.entries) == text


def test_reply_tally_matches_children_closure(fig_forest):
    # n1's replies are n3 (alice), n4 (dave) and n5 (erin): one of each stance.
    stances = StanceAssignment.from_truth({
        ("alice", 0): Stance.AGAINST, ("bob", 0): Stance.PRO,
        ("carol", 0): Stance.PRO, ("dave", 0): Stance.NEUTRAL, ("erin", 0): Stance.PRO})
    assert reply_tallies(fig_forest, stances)["n1"] == (1, 1, 1, 0)
