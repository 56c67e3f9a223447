"""Full-scan recomputation of FS1 and FS2 for single (user, period) pairs.

Independent of `stancecast`: it reads the raw dump records and a stances
TSV, and finds each entry's replies by scanning the whole corpus in time
order instead of walking the reply tree. It assumes a dump that needs no
repair (every parent present, every reply later than its parent), which
`check_clean` verifies first; the synthetic corpora satisfy it.
"""

from __future__ import annotations

import bisect

STANCES = ("A", "N", "P")
_DELETED = (None, "", "[deleted]", "[removed]")


def _author(record: dict) -> str:
    return "[deleted]" if record["author"] in _DELETED else record["author"]


def quantiles5(values: list[int]) -> list[float]:
    """(min, Q25, Q50, Q75, max), linear interpolation at h = (n-1)q; empty -> zeros."""
    data = sorted(float(v) for v in values)
    if not data:
        return [0.0] * 5
    out = []
    for q in (0.0, 0.25, 0.50, 0.75, 1.0):
        h = (len(data) - 1) * q
        lo = int(h)
        hi = min(lo + 1, len(data) - 1)
        out.append(data[lo] + (h - lo) * (data[hi] - data[lo]))
    return out


class FullScan:
    def __init__(self, records: list[dict], stances: dict[tuple[str, int], str],
                 cutoffs: list[int]):
        self.by_id = {r["id"]: r for r in records}
        self.ordered = sorted(records, key=lambda r: (r["created_utc"], r["id"]))
        self.stances = stances
        self.cutoffs = cutoffs

    def check_clean(self) -> str | None:
        """Why the dump needs repair, or None when the oracle applies."""
        for record in self.ordered:
            parent = record.get("parent_id")
            if parent is None:
                continue
            if parent not in self.by_id:
                return f"dangling parent {parent}"
            if self.by_id[parent]["created_utc"] >= record["created_utc"]:
                return f"reply {record['id']} not later than its parent"
        return None

    def user_periods(self) -> set[tuple[str, int]]:
        """Every (author, period) with an entry in range; deleted authors are no subject."""
        pairs = {(_author(r), self.period(r)) for r in self.ordered}
        return {(user, period) for user, period in pairs
                if user != "[deleted]" and period is not None}

    def period(self, record: dict) -> int | None:
        ts = record["created_utc"]
        if ts < self.cutoffs[0] or ts >= self.cutoffs[-1]:
            return None
        return bisect.bisect_right(self.cutoffs, ts) - 1

    def _replies_in_period(self, root_id: str, period: int) -> list[dict]:
        # Parents precede replies in time order, so one scan finds the subtree.
        subtree = {root_id}
        found = []
        for record in self.ordered:
            if record.get("parent_id") in subtree:
                subtree.add(record["id"])
                if self.period(record) == period:
                    found.append(record)
        return found

    def features(self, user: str, period: int) -> tuple[list[float], list[float]]:
        """(FS1 values, FS2 values), each ending with the current-stance one-hot."""
        mine = [r for r in self.ordered if _author(r) == user and self.period(r) == period]
        posts = [r for r in mine if r.get("parent_id") is None]
        comments = [r for r in mine if r.get("parent_id") is not None
                    and _author(self.by_id[r["parent_id"]]) != user]
        own = posts + comments
        replies = {r["id"]: self._replies_in_period(r["id"], period) for r in own}
        current = self.stances[(user, period)]
        onehot = [1.0 if s == current else 0.0 for s in STANCES]

        fs1 = [float(len(posts)), float(len(comments))]
        fs1 += quantiles5([len(replies[r["id"]]) for r in own])

        sent = dict.fromkeys(STANCES, 0)
        for record in comments:
            parent = self.by_id[record["parent_id"]]
            stance = self.stances.get((_author(parent), period))
            if stance is None:
                stance = self.stances.get((_author(parent), self.period(parent)), "N")
            sent[stance] += 1
        received = {s: [] for s in STANCES}
        for record in own:
            counts = dict.fromkeys(STANCES, 0)
            for reply in replies[record["id"]]:
                counts[self.stances[(_author(reply), period)]] += 1
            for s in STANCES:
                received[s].append(counts[s])
        fs2 = [float(sent[s]) for s in STANCES]
        for s in STANCES:
            fs2 += quantiles5(received[s])
        return fs1 + onehot, fs2 + onehot


def read_stances(text: str) -> dict[tuple[str, int], str]:
    """(user, period) -> stance letter from a `stances.tsv` body."""
    out = {}
    for row in text.splitlines()[1:]:
        if row.strip():
            user, period, _prob, stance = row.split("\t")
            out[(user, int(period))] = stance
    return out
