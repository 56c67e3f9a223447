"""Entry parsing, thread-forest reconstruction, and time partitioning.

A corpus is a flat list of entries (posts and comments). Posts have no
parent; every comment links to a parent entry. Reconstruction turns the
flat list into a forest of discussion trees, repairing the usual defects
of scraped dumps: dangling parent links, parent-link cycles, and child
timestamps earlier than their parent's.
"""

from __future__ import annotations

import bisect
import json
import logging
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from functools import cached_property
from typing import Iterable, Optional

from .textprep import preprocess

log = logging.getLogger("stancecast.corpus")

# Authors that were deleted or blanked in the dump are folded into one
# reserved user: their entries keep the tree intact but must never become
# feature subjects.
SENTINEL_AUTHOR = "[deleted]"

_DELETED_AUTHOR_VALUES = {"", "[deleted]", "[removed]"}

# An author is written as one cell of a TSV row (stances.tsv, feature
# tables), so it must hold no tab and nothing `str.splitlines` breaks on.
_TSV_BREAKING_CHARS = frozenset("\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")


@dataclass(frozen=True)
class Entry:
    """One post or comment: author, content, timestamp, tree linkage."""

    id: str
    author: str
    content: str
    timestamp: int
    parent_id: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("entry id must be non-empty")
        if self.parent_id == self.id:
            raise ValueError(f"entry {self.id!r} lists itself as parent")

    @property
    def is_post(self) -> bool:
        return self.parent_id is None

    @cached_property
    def tokens(self) -> tuple[str, ...]:
        """Preprocessed content, computed once per entry object.

        Preprocessing never joins tokens across a space, so a document's
        tokens are the concatenation of its entries' tokens.
        """
        return tuple(preprocess(self.content))


@dataclass
class ParseResult:
    entries: list[Entry]
    malformed: int = 0
    duplicates: int = 0

    @property
    def warnings(self) -> int:
        return self.malformed + self.duplicates


def parse_entries(lines: Iterable[str]) -> ParseResult:
    """Parse line-delimited JSON records into entries.

    Each record needs `id`, `author`, `created_utc` (integer seconds that
    `datetime` can represent) and optionally `body` (or `text`) and
    `parent_id`. Malformed records are counted and skipped; a duplicate id
    keeps the first occurrence. A line that is not JSON, nests too deeply, or
    holds an undecodable byte is malformed. A `null` author is an explicit
    deletion marker and maps to the sentinel user, while a missing author
    field, an author with a tab or a line break, or an author that does not
    encode to UTF-8 (a lone surrogate such as JSON `"\\ud800"`) makes the
    record malformed.
    """
    entries: list[Entry] = []
    seen: set[str] = set()
    malformed = 0
    duplicates = 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            line.encode("utf-8")  # `errors="surrogateescape"` reads a bad byte as a surrogate
        except (json.JSONDecodeError, RecursionError, UnicodeEncodeError):
            malformed += 1
            continue
        if not isinstance(record, dict):
            malformed += 1
            continue
        entry = _entry_from_record(record)
        if entry is None:
            malformed += 1
            continue
        if entry.id in seen:
            duplicates += 1
            continue
        seen.add(entry.id)
        entries.append(entry)
    if malformed:
        log.warning("skipped %d malformed record(s)", malformed)
    if duplicates:
        log.warning("dropped %d duplicate-id record(s)", duplicates)
    return ParseResult(entries=entries, malformed=malformed, duplicates=duplicates)


def _entry_from_record(record: dict) -> Optional[Entry]:
    entry_id = record.get("id")
    if not isinstance(entry_id, str) or not entry_id:
        return None
    if "author" not in record:
        return None
    author = record["author"]
    if author is None:
        author = SENTINEL_AUTHOR
    if not isinstance(author, str) or not _TSV_BREAKING_CHARS.isdisjoint(author):
        return None
    try:
        author.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate: stances.tsv could not hold it
        return None
    if author in _DELETED_AUTHOR_VALUES:
        author = SENTINEL_AUTHOR
    timestamp = record.get("created_utc")
    if isinstance(timestamp, bool):
        return None
    if isinstance(timestamp, str):
        try:
            timestamp = float(timestamp)
        except ValueError:
            return None
    if isinstance(timestamp, float):
        if not timestamp.is_integer():
            return None
        timestamp = int(timestamp)
    if not isinstance(timestamp, int):
        return None
    try:
        datetime.fromtimestamp(timestamp, tz=timezone.utc)
    except (OverflowError, OSError, ValueError):
        return None
    body = record.get("body")
    if body is None:
        body = record.get("text")
    if body is None:
        body = ""
    if not isinstance(body, str):
        return None
    parent_id = record.get("parent_id")
    if parent_id is not None and (not isinstance(parent_id, str) or not parent_id):
        return None
    if parent_id == entry_id:
        return None
    return Entry(id=entry_id, author=author, content=body,
                 timestamp=timestamp, parent_id=parent_id)


@dataclass
class ThreadForest:
    """Immutable reconstruction of the discussion trees of a corpus.

    `roots` and every child list are ordered by (timestamp, id), so the
    structure is identical no matter the order entries arrived in. `order`
    holds every entry once, in pre-order: each root in turn, then its
    children's subtrees in child-list order, so a parent precedes its children.
    Orphan roots are comments whose parent fell outside the corpus (or
    sat on a parent-link cycle); they anchor their own tree but still
    count as comments, not posts.
    """

    roots: list[str] = field(default_factory=list)
    children: dict[str, list[str]] = field(default_factory=dict)
    entry_index: dict[str, Entry] = field(default_factory=dict)
    thread_of: dict[str, str] = field(default_factory=dict)
    order: list[str] = field(default_factory=list)
    orphan_roots: frozenset[str] = frozenset()
    repaired_timestamps: int = 0
    broken_cycles: int = 0


def build_forest(entries: list[Entry]) -> ThreadForest:
    """Reconstruct the thread forest from parsed entries.

    Entries without a parent become roots. Entries whose parent is not in
    the corpus become flagged orphan roots. Parent-link cycles are broken
    by turning every entry on the cycle into a flagged orphan root. Child
    timestamps are clamped up to their parent's timestamp.
    """
    index: dict[str, Entry] = {}
    for entry in entries:
        if entry.id in index:
            raise ValueError(f"duplicate entry id {entry.id!r}")
        index[entry.id] = entry

    orphans: set[str] = set()
    parent_link: dict[str, str] = {}
    for entry in entries:
        if entry.parent_id is None:
            continue
        if entry.parent_id in index:
            parent_link[entry.id] = entry.parent_id
        else:
            orphans.add(entry.id)

    cycle_members = _find_cycle_members(parent_link)
    if cycle_members:
        log.debug("broke %d parent-link cycle entrie(s): %s",
                  len(cycle_members), sorted(cycle_members)[:10])
        for node in cycle_members:
            del parent_link[node]
            orphans.add(node)

    children: dict[str, list[str]] = {eid: [] for eid in index}
    root_ids = [eid for eid in index if eid not in parent_link]
    for child, parent in parent_link.items():
        children[parent].append(child)

    # Top-down pass: clamp child timestamps to the parent's (after the
    # parent itself was repaired), then freeze the child ordering.
    repaired = 0
    order_key = lambda eid: (index[eid].timestamp, eid)
    root_ids.sort(key=order_key)
    thread_of: dict[str, str] = {}
    order: list[str] = []
    stack = [(rid, rid) for rid in reversed(root_ids)]
    while stack:
        eid, root = stack.pop()
        thread_of[eid] = root
        order.append(eid)
        parent_ts = index[eid].timestamp
        for child in children[eid]:
            if index[child].timestamp < parent_ts:
                index[child] = replace(index[child], timestamp=parent_ts)
                repaired += 1
        children[eid].sort(key=order_key)
        for child in reversed(children[eid]):
            stack.append((child, root))

    return ThreadForest(
        roots=root_ids,
        children=children,
        entry_index=index,
        thread_of=thread_of,
        order=order,
        orphan_roots=frozenset(orphans),
        repaired_timestamps=repaired,
        broken_cycles=len(cycle_members),
    )


def _find_cycle_members(parent_link: dict[str, str]) -> set[str]:
    """Return every node that sits on a parent-link cycle."""
    state: dict[str, int] = {}  # 1 = on current walk, 2 = resolved
    members: set[str] = set()
    for start in sorted(parent_link):
        if state.get(start):
            continue
        walk: list[str] = []
        node = start
        while node in parent_link and not state.get(node):
            state[node] = 1
            walk.append(node)
            node = parent_link[node]
        if state.get(node) == 1:
            # Closed a loop inside the current walk: everything from the
            # first occurrence of `node` onward is on the cycle.
            members.update(walk[walk.index(node):])
        for visited in walk:
            state[visited] = 2
    return members


@dataclass(frozen=True)
class Diffusion:
    """A root-to-leaf path through one thread, temporally ordered."""

    entries: tuple[str, ...]


def extract_diffusions(forest: ThreadForest, root: str) -> list[Diffusion]:
    """Enumerate all root-to-leaf paths of the thread at `root`."""
    if root not in forest.entry_index:
        raise KeyError(f"unknown entry id {root!r}")
    if forest.thread_of[root] != root:
        raise ValueError(f"entry {root!r} is not a thread root")
    diffusions: list[Diffusion] = []
    stack: list[tuple[str, tuple[str, ...]]] = [(root, (root,))]
    while stack:
        node, path = stack.pop()
        kids = forest.children[node]
        if not kids:
            diffusions.append(Diffusion(entries=path))
            continue
        for child in reversed(kids):
            stack.append((child, path + (child,)))
    return diffusions


@dataclass(frozen=True)
class TimePartition:
    """Strictly increasing cutoffs defining half-open periods.

    Cutoffs o_0 < o_1 < ... < o_K define K intervals [o_j, o_{j+1}).
    The half-open convention guarantees each timestamp lands in at most
    one period; timestamps outside [o_0, o_K) are out of range.
    """

    cutoffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.cutoffs) < 2:
            raise ValueError("a partition needs at least two cutoffs")
        for a, b in zip(self.cutoffs, self.cutoffs[1:]):
            if a >= b:
                raise ValueError("cutoffs must be strictly increasing")

    @classmethod
    def from_iso_dates(cls, dates: Iterable[str]) -> "TimePartition":
        """Build from ISO-8601 dates, read as UTC midnight when naive."""
        cutoffs = []
        for text in dates:
            moment = datetime.fromisoformat(text)
            if moment.tzinfo is None:
                moment = moment.replace(tzinfo=timezone.utc)
            cutoffs.append(int(moment.timestamp()))
        return cls(cutoffs=tuple(cutoffs))

    @property
    def n_periods(self) -> int:
        return len(self.cutoffs) - 1

    def period_of(self, timestamp: int) -> Optional[int]:
        """Period index for a timestamp, or None when out of range."""
        if timestamp < self.cutoffs[0] or timestamp >= self.cutoffs[-1]:
            return None
        return bisect.bisect_right(self.cutoffs, timestamp) - 1


@dataclass
class PartitionResult:
    by_period: dict[int, set[str]]
    discarded: int = 0


def partition_periods(entries: Iterable[Entry], partition: TimePartition) -> PartitionResult:
    """Assign every in-range entry to exactly one period."""
    by_period: dict[int, set[str]] = {j: set() for j in range(partition.n_periods)}
    discarded = 0
    for entry in entries:
        period = partition.period_of(entry.timestamp)
        if period is None:
            discarded += 1
        else:
            by_period[period].add(entry.id)
    return PartitionResult(by_period=by_period, discarded=discarded)


def group_user_period(
    entries: Iterable[Entry], partition: TimePartition
) -> dict[tuple[str, int], list[Entry]]:
    """Group in-range entries by (author, period), each group in (timestamp, id) order."""
    groups: dict[tuple[str, int], list[Entry]] = {}
    for entry in entries:
        period = partition.period_of(entry.timestamp)
        if period is None:
            continue
        groups.setdefault((entry.author, period), []).append(entry)
    for key in groups:
        groups[key].sort(key=lambda e: (e.timestamp, e.id))
    return groups


def entries_to_jsonl(entries: Iterable[Entry]) -> str:
    """Serialize entries to the line-delimited record format, deterministically."""
    lines = [json.dumps({"id": e.id, "author": e.author, "body": e.content,
                         "created_utc": e.timestamp, "parent_id": e.parent_id},
                        sort_keys=True, separators=(",", ":")) for e in entries]
    return "\n".join(lines) + ("\n" if lines else "")
