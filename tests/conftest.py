import json
import random

import pytest

from stancecast.corpus import Entry, TimePartition, build_forest, parse_entries
from stancecast.stance import STANCE_ORDER, StanceAssignment


def make_fig_entries():
    """Six-entry thread: n1,n2 reply to n0; n3 to n1; n4,n5 to n3."""
    return [
        Entry("n0", "alice", "hello world", 100),
        Entry("n1", "bob", "first reply", 110, "n0"),
        Entry("n2", "carol", "second reply", 120, "n0"),
        Entry("n3", "alice", "nested", 130, "n1"),
        Entry("n4", "dave", "deep one", 140, "n3"),
        Entry("n5", "erin", "deep two", 150, "n3"),
    ]


def random_tree_entries(rng: random.Random, n_nodes: int, n_users: int = 8,
                        span: int = 1000, start: int = 0, prefix: str = "t"):
    """One well-formed random thread: node i replies to a random earlier node."""
    entries = [Entry(f"{prefix}0", f"u{rng.randrange(n_users)}", "root text", start)]
    for i in range(1, n_nodes):
        parent = rng.randrange(i)
        ts = start + (i * span) // max(1, n_nodes)
        entries.append(Entry(f"{prefix}{i}", f"u{rng.randrange(n_users)}",
                             f"body {i}", ts, f"{prefix}{parent}"))
    return entries


def random_stances(rng: random.Random, entries, partition: TimePartition) -> StanceAssignment:
    """Uniform random stance for every (author, period) pair that is active."""
    assignment = StanceAssignment()
    for entry in entries:
        period = partition.period_of(entry.timestamp)
        if period is None:
            continue
        key = (entry.author, period)
        if key not in assignment.stance:
            assignment.stance[key] = STANCE_ORDER[rng.randrange(3)]
    return assignment


@pytest.fixture
def fig_forest():
    return build_forest(make_fig_entries())


def ingestible_author(author: str) -> bool:
    """Ingest keeps `author` as it is: no TSV-breaking character, not a deletion marker."""
    parsed = parse_entries([json.dumps({"id": "x", "author": author, "created_utc": 0})])
    return bool(parsed.entries) and parsed.entries[0].author == author
