"""Structural and textual feature sets per (user, period).

Six sets are produced: FS1 activity counts with reply quantiles, FS2 the
same interactions split by the stance of the counterpart, FS3 the stance
composition of the threads the user engaged in, FS0 a TF-IDF textual
baseline over the corpus top words, and the unions FS4 (FS1+FS2+FS3) and
FS5 (FS0+FS4). Each set is one `FeatureTable` whose rows end with a
3-slot one-hot of the user's current stance, shared once inside unions.
`compute_fs0`-`compute_fs3` take any list of (user, period) keys and return
the set's numeric block, one row per key; `extract_all` writes each block and
the one-hot into one array per set. FS1-FS3 read `PeriodUserIndex`: arrays
over the forest's pre-order, with subtree ranges, in-period tallies as
prefix-count differences over them, and a CSR slice of entries per key.
"""

from __future__ import annotations

import functools
import logging
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from math import log as ln
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .corpus import (
    SENTINEL_AUTHOR,
    Entry,
    ThreadForest,
    TimePartition,
    group_user_period,
)
from .stance import STANCE_INDEX, STANCE_ORDER, Stance, StanceAssignment

log = logging.getLogger("stancecast.features")

SET_IDS = ("FS0", "FS1", "FS2", "FS3", "FS4", "FS5")

# Number of features in the symbolic description (the current stance is
# one categorical feature there but occupies three one-hot slots here).
SYMBOLIC_COUNTS = {"FS0": 101, "FS1": 8, "FS2": 19, "FS3": 16, "FS4": 41, "FS5": 141}

# The unions concatenate the numeric blocks of these sets, in this order,
# and end with the one-hot once.
UNION_PARTS = {"FS4": ("FS1", "FS2", "FS3"), "FS5": ("FS0", "FS1", "FS2", "FS3")}

_QUANTILE_LEVELS = (0.0, 0.25, 0.50, 0.75, 1.0)

Key = tuple[str, int]  # (user, period)


def numeric_dim(set_id: str, vocab_width: int = 100) -> int:
    return len(schema_columns(set_id, vocab_width=vocab_width))


def quantiles5(values: Iterable[float]) -> tuple[float, float, float, float, float]:
    """(min, Q25, Q50, Q75, max) with linear interpolation at h = (n-1)q.

    An empty multiset collapses to all zeros.
    """
    data = [float(v) for v in values]
    return tuple(grouped_quantiles5(np.zeros(len(data), dtype=np.int64), data, 1)[0].tolist())


def grouped_quantiles5(groups: np.ndarray, values: np.ndarray | Sequence[float],
                       n_groups: int) -> np.ndarray:
    """`quantiles5` of every group at once, as an (n_groups, 5) float64 block.

    `values[i]` belongs to group `groups[i]`; neither needs any order. Each
    group's values d, as float64 and sorted, give d[lo] + (h-lo)*(d[hi]-d[lo])
    at h = (n-1)q, lo = int(h), hi = min(lo+1, n-1): one IEEE operation
    after another, so every entry is the same bits as the scalar rule's.
    A group without values gets zeros.
    """
    groups = np.asarray(groups, dtype=np.int64)
    data = np.asarray(values, dtype=np.float64)
    data = data[np.lexsort((data, groups))]
    counts = np.bincount(groups, minlength=n_groups)
    full = counts > 0
    n = counts[full, None]
    start = (np.cumsum(counts) - counts)[full, None]
    h = (n - 1) * np.array(_QUANTILE_LEVELS)
    lo = h.astype(np.int64)
    low = data[start + lo]
    out = np.zeros((n_groups, len(_QUANTILE_LEVELS)))
    out[full] = low + (h - lo) * (data[start + np.minimum(lo + 1, n - 1)] - low)
    return out


class FeatureRow(NamedTuple):
    user: str
    period: int
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class FeatureTable:
    """One feature set: a float64 `values` row per (user, period).

    The last three columns of `values` are the one-hot of each row's
    current stance; `schema_columns` names the columns. Iterating yields
    `FeatureRow`s. Tables are equal when set_id, users and periods match
    and the values match bit for bit. A union from `assemble_union` keeps
    its constituent tables in `parts`, so `feature_table_tsv` renders it
    from their text; `dataclasses.replace` gives a table without parts.
    The rendered row text is cached, so `values` must not change in place.
    """

    set_id: str
    users: tuple[str, ...]
    periods: np.ndarray
    values: np.ndarray
    parts: tuple[FeatureTable, ...] = field(default=(), init=False, repr=False)

    def __len__(self) -> int:
        return len(self.users)

    def __iter__(self) -> Iterator[FeatureRow]:
        return map(FeatureRow, self.users, self.periods.tolist(), self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeatureTable):
            return NotImplemented
        return (self.set_id == other.set_id and self.users == other.users
                and np.array_equal(self.periods, other.periods)
                and self.values.shape == other.values.shape
                and self.values.tobytes() == other.values.tobytes())

    @property
    def current(self) -> np.ndarray:
        """STANCE_ORDER index of each row's current stance (first argmax of the one-hot)."""
        if not len(self):
            return np.zeros(0, dtype=np.int64)
        return np.argmax(self.values[:, -3:], axis=1)

    @functools.cached_property
    def _row_text(self) -> list[list[str]]:
        """Each row's numeric block, then its one-hot, as tab-joined reprs.

        One list per block that has columns, rendered once per table, so a
        union rendered from its parts formats no float again.
        """
        # A Python float's repr is the shortest exact round-trip form; a row at a time
        return [["\t".join(map(repr, row.tolist())) for row in block]
                for block in (self.values[:, :-3], self.values[:, -3:]) if block.shape[1]]


class UserPeriodActivity(NamedTuple):
    posts: list[str]
    comments: list[str]
    threads: set[str]


# Slot of an entry whose author has no stance in its period; 0-2 follow STANCE_ORDER.
_UNLABELED = len(STANCE_ORDER)
_NEUTRAL = STANCE_INDEX[Stance.NEUTRAL]


@dataclass(eq=False)
class PeriodUserIndex:
    """Flat arrays over the forest's pre-order: position i is entry `order[i]`.

    Per position: `period` (-1 out of range), `author` (the name's rank),
    `parent` (the position its parent_id names, else -1), `thread` (its
    root's position), `end` (its subtree is [i, end[i])), `is_post`, and
    `counted` (false for replies to the author's own entry). `slots[a, j]`
    is author a's slot in period j (Against, Neutral, Pro, unlabeled; column
    -1 unlabeled). `keys` maps each active (user, period), in (period, user)
    order, to its row k, which owns positions `entries[starts[k]:starts[k+1]]`.
    As `build_forest` clamps children up to their parent's timestamp, e's
    in-period replies are the entries of its period in (e, end[e]), and a
    thread's composition in period j those of j in its root's range. `tally`
    counts either as a difference of two rows of `prefix`, the running slot
    counts over the in-range positions in `sorted_keys` (period * (n + 1) +
    position) order. FS2 and FS3 refuse all but `stances`, the slots' source.
    """

    stances: StanceAssignment
    order: Sequence[str]
    period: np.ndarray
    author: np.ndarray
    slots: np.ndarray
    parent: np.ndarray
    thread: np.ndarray
    end: np.ndarray
    is_post: np.ndarray
    counted: np.ndarray
    keys: dict[Key, int]
    starts: np.ndarray
    entries: np.ndarray
    sorted_keys: np.ndarray
    prefix: np.ndarray

    def tally(self, period: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Slot counts of the entries of `period` at positions [lo, hi), one row each."""
        base = period * (len(self.order) + 1)
        return (self.prefix[np.searchsorted(self.sorted_keys, base + hi)]
                - self.prefix[np.searchsorted(self.sorted_keys, base + lo)])

    @functools.cached_property
    def replies(self) -> dict[str, tuple[int, int, int, int]]:
        """Each in-range entry's in-period reply tally, by entry id."""
        inside = np.flatnonzero(self.period >= 0)
        return dict(zip([self.order[i] for i in inside.tolist()],
                        map(tuple, self.tally(self.period[inside], inside + 1,
                                              self.end[inside]).tolist())))

    def users(self, period: int) -> list[str]:
        return [user for user, j in self.keys if j == period]

    def gather(self, keys: Sequence[Key]) -> tuple[np.ndarray, np.ndarray]:
        """(row in `keys`, position) of every entry of every key, key after key."""
        rows = [self.keys.get((user, period), -1) for user, period in keys]
        if -1 in rows:
            raise ValueError("user {!r} is not active in period {}".format(*keys[rows.index(-1)]))
        rows = np.array(rows, dtype=np.int64)
        stop = self.starts[rows + 1]
        count = stop - self.starts[rows]
        shift = np.repeat(stop - np.cumsum(count), count)
        return np.repeat(np.arange(len(rows)), count), self.entries[np.arange(len(shift)) + shift]

    def user_activity(self, user: str, period: int) -> UserPeriodActivity:
        at = self.gather([(user, period)])[1].tolist()
        return UserPeriodActivity(
            posts=[self.order[i] for i in at if self.is_post[i]],
            comments=[self.order[i] for i in at if self.counted[i] and not self.is_post[i]],
            threads={self.order[self.thread[i]] for i in at})

    def require_stances(self, stances: StanceAssignment) -> None:
        if stances is not self.stances:
            raise ValueError("the index was built from another stance assignment")


def build_period_user_index(
    forest: ThreadForest, partition: TimePartition, stances: StanceAssignment
) -> PeriodUserIndex:
    order = forest.order
    n = len(order)
    position = dict(zip(order, range(n)))
    entries = [forest.entry_index[eid] for eid in order]
    try:
        timestamp = np.array([e.timestamp for e in entries], dtype=np.int64)
    except OverflowError:
        wide = next(e.id for e in entries if not -2**63 <= e.timestamp < 2**63)
        raise ValueError(f"entry {wide!r} has a timestamp outside the int64 range") from None
    names = sorted({e.author for e in entries})
    code = dict(zip(names, range(len(names))))
    author = np.array([code[e.author] for e in entries], dtype=np.int64)
    parent = np.array([position.get(e.parent_id, -1) for e in entries], dtype=np.int64)

    children = [forest.children[eid] for eid in order]
    kids = np.array([len(c) for c in children], dtype=np.int64)
    child = np.array([position[c] for c in chain.from_iterable(children)], dtype=np.int64)
    up = np.repeat(np.arange(n), kids)
    late = np.flatnonzero(timestamp[child] < timestamp[up])
    if late.size:  # name the first child of the last parent in pre-order
        first = late[np.argmax(up[late] == up[late[-1]])]
        raise ValueError(f"entry {order[child[first]]!r} is earlier than its parent "
                         f"{order[up[first]]!r}; the forest must come from build_forest")
    # A subtree ends at the leaf reached by following last children, in doubling jumps.
    last = np.arange(n)
    last[kids > 0] = child[np.cumsum(kids)[kids > 0] - 1]
    while not np.array_equal(jump := last[last], last):
        last = jump
    root = np.bincount(child, minlength=n) == 0

    period = np.searchsorted(partition.cutoffs, timestamp, side="right") - 1
    period[period == partition.n_periods] = -1
    slots = np.full((len(names), partition.n_periods + 1), _UNLABELED, dtype=np.int64)
    for (user, j), stance in stances.stance.items():
        if user in code and 0 <= j < partition.n_periods:
            slots[code[user], j] = STANCE_INDEX[stance]
    inside = np.flatnonzero(period >= 0)
    by_period = inside[np.argsort(period[inside], kind="stable")]
    prefix = np.zeros((len(by_period) + 1, _UNLABELED + 1), dtype=np.int64)
    np.cumsum(np.eye(_UNLABELED + 1, dtype=np.int64)[slots[author, period][by_period]],
              axis=0, out=prefix[1:])
    key_of = period[inside] * len(names) + author[inside]
    grouped = np.argsort(key_of, kind="stable")
    distinct, starts = np.unique(key_of[grouped], return_index=True)
    periods, users = np.divmod(distinct, max(len(names), 1))
    return PeriodUserIndex(
        stances=stances, order=order, period=period, author=author, slots=slots,
        parent=parent, thread=np.flatnonzero(root)[np.cumsum(root) - 1], end=last + 1,
        is_post=np.array([e.parent_id is None for e in entries], dtype=bool),
        counted=~((parent >= 0) & (author[parent] == author)),
        keys={(names[a], j): k for k, (a, j) in enumerate(zip(users.tolist(), periods.tolist()))},
        starts=np.append(starts, len(inside)), entries=inside[grouped],
        sorted_keys=period[by_period] * (n + 1) + by_period, prefix=prefix)


def _require_labeled(unlabeled: np.ndarray, rows: np.ndarray, keys: Sequence[Key], what: str,
                     name: Callable[[int], str], order: Callable[[int], object]) -> None:
    """Raise for the first tally i with unlabeled authors by (row, `order(i)`), named `name(i)`."""
    bad = np.flatnonzero(unlabeled).tolist()
    if bad:
        first = min(bad, key=lambda i: (rows[i], order(i)))
        raise ValueError(
            f"{unlabeled[first]} {what} {name(first)!r} have an author "
            f"with no stance labeled in period {keys[rows[first]][1]}; "
            "labeling must precede feature extraction")


def compute_fs1(keys: Sequence[Key], forest: ThreadForest, index: PeriodUserIndex) -> np.ndarray:
    """Activity features per key: initiated posts, submitted comments, reply quantiles."""
    rows, at = index.gather(keys)
    rows, at = rows[index.counted[at]], at[index.counted[at]]  # every post is counted
    post = index.is_post[at]
    replies = index.tally(index.period[at], at + 1, index.end[at]).sum(axis=1)
    return np.column_stack([np.bincount(rows[post], minlength=len(keys)),
                            np.bincount(rows[~post], minlength=len(keys)),
                            grouped_quantiles5(rows, replies, len(keys))])


def compute_fs2(keys: Sequence[Key], forest: ThreadForest, index: PeriodUserIndex,
                stances: StanceAssignment) -> np.ndarray:
    """Interaction features per key, split by the stance of the counterpart.

    A comment counts under its parent author's stance in the comment's period,
    else in the parent's period, else (or with no parent in the corpus) Neutral.
    """
    index.require_stances(stances)
    rows, at = index.gather(keys)
    rows, at = rows[index.counted[at]], at[index.counted[at]]
    tallies = index.tally(index.period[at], at + 1, index.end[at])
    eid = lambda i: index.order[at[i]]
    _require_labeled(tallies[:, _UNLABELED], rows, keys, "in-period repl(ies) to", eid,
                     lambda i: (forest.entry_index[eid(i)].timestamp, eid(i)))
    comment = ~index.is_post[at]
    parent = index.parent[at[comment]]
    author = index.author[parent]
    now, then = (index.slots[author, index.period[p]] for p in (at[comment], parent))
    bucket = np.where(parent < 0, _NEUTRAL, np.where(
        now != _UNLABELED, now, np.where(then != _UNLABELED, then, _NEUTRAL)))
    n = len(STANCE_ORDER)
    sent = np.bincount(rows[comment] * n + bucket, minlength=len(keys) * n)
    return np.hstack([sent.reshape(len(keys), n),
                      *(grouped_quantiles5(rows, tallies[:, k], len(keys)) for k in range(n))])


def compute_fs3(keys: Sequence[Key], forest: ThreadForest, index: PeriodUserIndex,
                stances: StanceAssignment) -> np.ndarray:
    """Stance composition of the threads each key's user engaged in."""
    index.require_stances(stances)
    rows, at = index.gather(keys)
    _, first = np.unique(rows * len(index.order) + index.thread[at], return_index=True)
    rows, at = rows[first], at[first]
    threads = index.thread[at]
    counts = index.tally(index.period[at], threads, index.end[threads])
    name = lambda i: index.order[threads[i]]
    _require_labeled(counts[:, _UNLABELED], rows, keys, "entr(ies) of thread", name, name)
    return np.hstack([grouped_quantiles5(rows, counts[:, k], len(keys))
                      for k in range(len(STANCE_ORDER))])


def build_vocab_top_words(entries: Iterable[Entry], limit: int = 100) -> list[str]:
    """Most frequent preprocessed tokens over all given entries.

    Ties break lexicographically. With fewer than `limit` distinct tokens
    the full list comes back and the caller pads the missing columns.
    """
    counts: Counter[str] = Counter()
    for entry in entries:
        counts.update(entry.tokens)
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    vocab = [token for token, _ in ranked[:limit]]
    if len(vocab) < limit:
        log.warning("vocabulary has only %d distinct tokens (wanted %d); "
                    "missing columns stay zero", len(vocab), limit)
    return vocab


def build_document_index(
    entries: Iterable[Entry], partition: TimePartition
) -> dict[Key, list[Entry]]:
    """The entries of each (user, period) document, in (timestamp, id) order.

    Documents exist for every non-sentinel user active in a period; they
    are both the TF source and the IDF document universe.
    """
    return {key: group for key, group in group_user_period(entries, partition).items()
            if key[0] != SENTINEL_AUTHOR}


def compute_fs0(keys: Sequence[Key], vocab: Sequence[str],
                documents: Mapping[Key, Sequence[Entry]], width: int = 100,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """TF-IDF of the top corpus words over each key's period document.

    The IDF, ln((1+D)/(1+df)) + 1, is over all D `documents`; a key without
    a document gets zeros. Counts go straight into `out`, a (len(keys), width)
    float64 array or view, when given, and are multiplied once by the IDF.
    """
    block = np.empty((len(keys), width)) if out is None else out
    block.fill(0.0)
    counts = block[:, :len(vocab)]
    column = {word: j for j, word in enumerate(vocab)}
    rows: dict[Key, list[int]] = {}
    for row, key in enumerate(keys):
        rows.setdefault(key, []).append(row)
    df = np.zeros(len(vocab), dtype=np.int64)
    for key, document in documents.items():
        tf = np.bincount(np.array([j for entry in document for j in map(column.get, entry.tokens)
                                   if j is not None], dtype=np.intp), minlength=len(vocab))
        df += tf > 0
        counts[rows.get(key, [])] = tf
    counts *= [ln((1 + len(documents)) / (1 + n)) + 1.0 for n in df.tolist()]
    return block


def assemble_union(tables: Sequence[FeatureTable], set_id: str) -> FeatureTable:
    """Concatenate constituent numeric blocks, sharing the stance one-hot once."""
    if set_id not in UNION_PARTS:
        raise ValueError(f"not a union set: {set_id!r}")
    by_set = {t.set_id: t for t in tables}
    missing = [part for part in UNION_PARTS[set_id] if part not in by_set]
    if missing:
        raise ValueError(f"{set_id} needs constituent sets {missing}")
    parts = [by_set[part] for part in UNION_PARTS[set_id]]
    if any(part.values.shape[1] < len(STANCE_ORDER) for part in parts):
        raise ValueError("union constituents must end with the 3-slot stance one-hot")
    first = parts[0]
    for other in parts[1:]:
        if other.users != first.users or not np.array_equal(other.periods, first.periods):
            raise ValueError("union constituents must describe the same users and periods")
        if not np.array_equal(other.values[:, -3:], first.values[:, -3:]):
            raise ValueError("union constituents disagree on the current stance")
    values = np.hstack([part.values[:, :-3] for part in parts] + [first.values[:, -3:]])
    union = FeatureTable(set_id, first.users, first.periods, values)
    object.__setattr__(union, "parts", tuple(parts))
    return union


def extract_all(
    forest: ThreadForest,
    partition: TimePartition,
    stances: StanceAssignment,
    sets: Sequence[str] = SET_IDS,
    vocab_width: int = 100,
    vocab: Optional[list[str]] = None,
) -> dict[str, FeatureTable]:
    """Compute the requested feature sets for every active (user, period).

    The sentinel user contributes to everyone else's counts but gets no
    rows of its own. Rows are ordered by (period, user). A precomputed
    top-word `vocab` skips the corpus scan for FS0/FS5.
    """
    unknown = [s for s in sets if s not in SET_IDS]
    if unknown:
        raise ValueError(f"unknown feature sets: {unknown}")
    index = build_period_user_index(forest, partition, stances)
    needed = set(sets)
    for set_id in sets:
        needed.update(UNION_PARTS.get(set_id, ()))

    entries = list(forest.entry_index.values())
    documents: dict[Key, list[Entry]] = {}
    if "FS0" in needed:
        if vocab is None:
            in_range = [e for e in entries if partition.period_of(e.timestamp) is not None]
            vocab = build_vocab_top_words(in_range, limit=vocab_width)
        documents = build_document_index(entries, partition)

    keys = [key for key in index.keys if key[0] != SENTINEL_AUTHOR]
    first = index.entries[index.starts[[index.keys[key] for key in keys]]]
    current = index.slots[index.author[first], index.period[first]]
    if _UNLABELED in current:
        user, period = keys[int(np.argmax(current == _UNLABELED))]
        raise ValueError(f"no stance labeled for {user!r} in period {period}")
    onehot = np.eye(len(STANCE_ORDER))[current]
    users = tuple(user for user, _ in keys)
    periods = np.array([period for _, period in keys], dtype=np.int64)

    blocks = {"FS1": lambda: compute_fs1(keys, forest, index),
              "FS2": lambda: compute_fs2(keys, forest, index, stances),
              "FS3": lambda: compute_fs3(keys, forest, index, stances)}
    tables: dict[str, FeatureTable] = {}
    for set_id in (*blocks, "FS0"):
        if set_id in needed:
            values = np.empty((len(keys), numeric_dim(set_id, vocab_width)))
            if set_id == "FS0":  # counted in place
                compute_fs0(keys, vocab, documents, width=vocab_width, out=values[:, :-3])
            else:
                values[:, :-3] = blocks[set_id]()
            values[:, -3:] = onehot
            tables[set_id] = FeatureTable(set_id, users, periods, values)
    for set_id in UNION_PARTS:
        if set_id in needed:
            tables[set_id] = assemble_union(list(tables.values()), set_id)
    return {set_id: tables[set_id] for set_id in sets}


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def _stance_block_names(prefix: str) -> list[str]:
    return [f"{prefix}^{{{s.value}{q}}}" for s in STANCE_ORDER for q in range(1, 6)]


def schema_columns(set_id: str, vocab: Optional[Sequence[str]] = None,
                   vocab_width: int = 100) -> list[str]:
    """Column names per feature set, in the numeric slot order."""
    if set_id not in SET_IDS:
        raise ValueError(f"unknown feature set {set_id!r}")
    words = list(vocab or [])
    words += [f"pad{i}" for i in range(vocab_width - len(words))]
    numeric = {
        "FS0": [f"tfidf:{w}" for w in words],
        "FS1": ["ID_t", "CS_t"] + [f"R_t^{q}" for q in range(1, 6)],
        "FS2": [f"CS_t^{s.value}" for s in STANCE_ORDER] + _stance_block_names("R_t"),
        "FS3": _stance_block_names("UP_t"),
    }
    columns = [name for part in UNION_PARTS.get(set_id, (set_id,)) for name in numeric[part]]
    return columns + [f"c_t={s.value}" for s in STANCE_ORDER]


_TSV_CHUNK_ROWS = 512  # rows per chunk of rendered TSV text
_PARSE_CHUNK_CHARS = 1 << 18  # characters split into lines at once by the parser


def feature_table_chunks(set_id: str, parts: Sequence[FeatureTable]) -> Iterator[str]:
    """The TSV of `set_id` with a (user, period, set_id, f_*) header, in chunks
    of whole rows: the numeric blocks of `parts` in order, then the first
    part's one-hot. One part renders itself; a union's constituents, in
    `UNION_PARTS` order, render the union without assembling its values."""
    first = parts[0]
    if not len(first):
        yield "user\tperiod\tset_id\n"
        return
    width = sum(part.values.shape[1] - 3 for part in parts) + 3
    yield "\t".join(["user", "period", "set_id"] + [f"f_{i}" for i in range(width)]) + "\n"
    text = [*(block for part in parts for block in part._row_text[:-1]), first._row_text[-1]]
    periods = first.periods.tolist()
    for start in range(0, len(first), _TSV_CHUNK_ROWS):
        rows = slice(start, start + _TSV_CHUNK_ROWS)
        yield "".join(
            "\t".join([user, str(period), set_id, *blocks]) + "\n"
            for user, period, *blocks in zip(first.users[rows], periods[rows],
                                             *(block[rows] for block in text)))


def feature_table_tsv(table: FeatureTable) -> str:
    """Render one feature set as a TSV with a (user, period, set_id, f_*) header."""
    return "".join(feature_table_chunks(table.set_id, table.parts or (table,)))


def _rows(text: str, chunk: int = _PARSE_CHUNK_CHARS) -> Iterator[tuple[int, str]]:
    """(line number, line) of each non-blank line, numbered as `text.splitlines()`
    splits, a chunk at a time: every chunk but the last ends with a newline."""
    number, start = 0, 0
    while start < len(text):
        end = text.find("\n", start + chunk)
        end = len(text) if end < 0 else end + 1
        for number, line in enumerate(text[start:end].splitlines(), start=number + 1):
            if line and not line.isspace():
                yield number, line
        start = end


def feature_table_from_tsv(text: str) -> FeatureTable:
    """Parse a table written by `feature_table_tsv`.

    Raises `ValueError` naming the line when the header is not
    `user, period, set_id, f_0 ... f_{w-1}` or a row does not fit it.
    A table without rows comes back with an empty `set_id`. One pass
    counts the rows and the next parses them into one preallocated array.
    """
    rows = _rows(text)
    first = next(rows, None)
    if first is None:
        raise ValueError("feature table is empty: missing header")
    n_rows = sum(1 for _ in rows)
    header = first[1].split("\t")
    width = len(header) - 3
    if header != ["user", "period", "set_id"] + [f"f_{i}" for i in range(width)]:
        raise ValueError(f"line {first[0]}: feature table header must be "
                         "user, period, set_id, f_0 ... f_{w-1}")
    if width < 3 and n_rows:
        raise ValueError(f"line {first[0]}: {width} value column(s) cannot hold "
                         "the 3-slot stance one-hot")
    set_id = ""
    users: list[str] = []
    periods = np.empty(n_rows, dtype=np.int64)
    values = np.empty((n_rows, width))
    rows = _rows(text)
    next(rows)
    for i, (n, row) in enumerate(rows):
        cells = row.split("\t")
        if len(cells) != width + 3:
            raise ValueError(f"line {n}: {len(cells)} cells, header has {width + 3}")
        if users and cells[2] != set_id:
            raise ValueError(f"line {n}: set_id {cells[2]!r}, the table holds {set_id!r}")
        set_id = cells[2]
        try:
            periods[i] = np.int64(int(cells[1]))
            values[i] = [*map(float, cells[3:])]
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"line {n}: {exc}") from None
        users.append(cells[0])
    return FeatureTable(set_id, tuple(users), periods, values)
