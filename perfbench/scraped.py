"""Seeded generator of a Reddit-style JSONL dump with planted defects.

The dump is what the `stancecast` CLI ingests: one JSON record per line
with `id`, `author`, `created_utc`, `body` and `parent_id`, plus a few
fields a real scrape carries and the parser ignores. Text is pseudo-English:
generated stems with real English suffixes, drawn Zipf-wise, tilted toward
the author's current stance, with stopwords, URLs, mentions, accented words
and (on about 30% of entries) lexicon hashtags, so tokenizing, stemming and
weak labeling all do real work.

Planted defects, each counted in `Planted`: dangling parents, parent-link
cycles, child-before-parent timestamps, duplicate ids, malformed lines and
deleted authors. Two inputs known to crash the pipeline are left out on
purpose: an author containing a tab (its `stances.tsv` row cannot be read
back) and `created_utc=1e20` (timestamp overflow in `profile`). Either one
aborts every run, so planting them would measure nothing.

Stdlib only: the generator must not depend on the program it feeds.
"""

from __future__ import annotations

import bisect
import json
import random
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from itertools import accumulate

SENTINEL = "[deleted]"
DELETED_AUTHOR_VALUES = (None, "[deleted]", "[removed]", "")

PRO_TAGS = ("voteleave", "takebackcontrol", "betteroffout", "voteout", "no2eu")
AGAINST_TAGS = ("strongerin", "bremain", "intogether", "votein", "greenerin")
OTHER_TAGS = ("brexit", "ukpolitics", "eu", "news")

_ONSETS = ("b", "br", "c", "ch", "cl", "cr", "d", "dr", "f", "fl", "g", "gr", "h",
           "j", "k", "l", "m", "n", "p", "pl", "pr", "qu", "r", "s", "sh", "sl",
           "sp", "st", "str", "t", "th", "tr", "v", "w", "wh")
_NUCLEI = ("a", "e", "i", "o", "u", "ai", "ea", "ee", "ie", "oa", "ou", "y")
_CODAS = ("", "", "b", "ct", "d", "ft", "g", "l", "ll", "m", "mp", "n", "nd",
          "nt", "p", "r", "rd", "rn", "rt", "s", "ss", "st", "t", "v", "x")
# Real suffixes, so Porter's steps 1-5 all find something to strip.
_SUFFIXES = ("", "", "", "s", "es", "ed", "ing", "ly", "er", "ers", "ation",
             "ations", "ational", "ness", "ment", "ments", "ful", "fulness",
             "ize", "ization", "izer", "ism", "ist", "ity", "ive", "iveness",
             "ous", "ousness", "ousli", "al", "alism", "ance", "ence", "ant",
             "ent", "ement", "ible", "able", "ability", "ic", "ical", "ically",
             "ate", "iti", "biliti", "eli", "entli", "li", "y", "ies")
_STOPWORDS = ("the", "and", "of", "to", "is", "that", "it", "we", "they", "not",
              "this", "but", "for", "with", "are", "was", "have", "be", "on")
_ACCENTED = ("café", "naïve", "rôle", "élite", "déjà", "façade", "coöperate")
_PUNCT = ("", "", "", ".", ",", "!", "?", ";")


N_USERS = 2000
N_PERIODS = 6
PARTICIPATION = 0.9
EXTRA_ENTRIES_MEAN = 1.2
POST_PROB = 0.08
PERIOD_DAYS = 30
START = "2016-01-01"
STEM_COUNT = 1500
TILT_PROB = 0.25
HASHTAG_PROB = 0.30
DELETED_PROB = 0.02
# Planted defects: how many of each, and the sizes of the parent-link rings.
DANGLING = 40
CYCLES = (2, 3, 2)
EARLY_CHILDREN = 60
DUPLICATES = 30
MALFORMED = 25


@dataclass
class Planted:
    """What the generator put in the dump, as ingest should report it."""

    entries: int = 0
    malformed_records: int = 0
    duplicate_ids: int = 0
    orphan_roots: int = 0
    broken_cycles: int = 0
    clamped_timestamps: int = 0
    threads: int = 0
    out_of_range_entries: int = 0
    deleted_authors: int = 0
    periods: dict[str, int] = field(default_factory=dict)
    # (author, period) pairs after repair; the sentinel is labeled but
    # never becomes a feature subject.
    labeled_user_periods: int = 0
    feature_user_periods: int = 0

    def diagnostics(self) -> dict:
        """The subset of fields `ingest_diagnostics.json` carries."""
        keys = ("entries", "malformed_records", "duplicate_ids", "orphan_roots",
                "broken_cycles", "clamped_timestamps", "threads",
                "out_of_range_entries", "periods")
        data = asdict(self)
        return {k: data[k] for k in keys}


@dataclass
class ScrapedDump:
    text: str
    cutoffs: list[str]
    planted: Planted


def _zipf_cum(n: int, s: float = 1.07, q: float = 2.7) -> list[float]:
    return list(accumulate(1.0 / (r + q) ** s for r in range(n)))


def _stems(rng: random.Random, count: int) -> list[str]:
    seen: set[str] = set()
    stems: list[str] = []
    while len(stems) < count:
        n_syll = rng.choice((1, 2, 2, 2, 3))
        stem = "".join(rng.choice(_ONSETS) + rng.choice(_NUCLEI) + rng.choice(_CODAS)
                       for _ in range(n_syll))
        if len(stem) >= 3 and stem not in seen and stem not in _STOPWORDS:
            seen.add(stem)
            stems.append(stem)
    return stems


def _iso(ts: int) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%d")


class _Text:
    """Stance-tilted pseudo-English sentences."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        stems = _stems(rng, STEM_COUNT)
        n_tilt = STEM_COUNT // 10
        self.pools = {
            "A": stems[:n_tilt],
            "P": stems[n_tilt:2 * n_tilt],
            "C": stems[2 * n_tilt:],
        }
        self.cum = {key: _zipf_cum(len(pool)) for key, pool in self.pools.items()}
        self.suffix_cum = _zipf_cum(len(_SUFFIXES), s=0.6, q=1.0)

    def _draw(self, pool: str, k: int) -> list[str]:
        rng = self.rng
        stems = rng.choices(self.pools[pool], cum_weights=self.cum[pool], k=k)
        suffixes = rng.choices(_SUFFIXES, cum_weights=self.suffix_cum, k=k)
        return [a + b for a, b in zip(stems, suffixes)]

    def entry(self, stance: str, user_names: list[str]) -> str:
        rng = self.rng
        n_words = min(60, 4 + int(rng.expovariate(1 / 14)))
        n_tilted = sum(1 for _ in range(n_words) if rng.random() < TILT_PROB)
        if stance == "N":
            tilted = self._draw("A", n_tilted // 2) + self._draw("P", n_tilted - n_tilted // 2)
        else:
            tilted = self._draw(stance, n_tilted)
        words = tilted + self._draw("C", n_words - n_tilted)
        rng.shuffle(words)
        out: list[str] = []
        for word in words:
            if rng.random() < 0.3:
                out.append(rng.choice(_STOPWORDS))
            out.append(word + rng.choice(_PUNCT))
        out[0] = out[0].capitalize()
        roll = rng.random()
        if roll < 0.03:
            out.append(f"https://example.org/r/{rng.randrange(10**6):06d}")
        elif roll < 0.06:
            out.insert(rng.randrange(len(out)), "@" + rng.choice(user_names))
        elif roll < 0.08:
            out.insert(rng.randrange(len(out)), rng.choice(_ACCENTED))
        if rng.random() < HASHTAG_PROB:
            for _ in range(rng.choice((1, 1, 2))):
                out.append("#" + self._hashtag(stance))
        return " ".join(out)

    def _hashtag(self, stance: str) -> str:
        rng = self.rng
        if stance == "N":
            return rng.choice(OTHER_TAGS + PRO_TAGS[:1] + AGAINST_TAGS[:1])
        own, other = (PRO_TAGS, AGAINST_TAGS) if stance == "P" else (AGAINST_TAGS, PRO_TAGS)
        return rng.choice(own) if rng.random() < 0.85 else rng.choice(other)


def _base36(n: int) -> str:
    digits = "0123456789abcdefghijklmnopqrstuvwxyz"
    out = ""
    while True:
        n, r = divmod(n, 36)
        out = digits[r] + out
        if not n:
            return out


def lexicon_text() -> str:
    """The hashtag lexicon the workload's config points at."""
    return "[pro]\n" + "".join(f"#{t}\n" for t in PRO_TAGS) + \
        "[against]\n" + "".join(f"#{t}\n" for t in AGAINST_TAGS)


def generate(seed: int, n_users: int = N_USERS) -> ScrapedDump:
    """Build the dump text and the planted-defect record for one seed."""
    rng = random.Random(seed)
    text = _Text(rng)
    users = [f"{rng.choice(_ONSETS)}{rng.choice(_NUCLEI)}{rng.choice(_CODAS)}_{i}"
             for i in range(n_users)]
    start = int(datetime.fromisoformat(START).replace(tzinfo=timezone.utc).timestamp())
    span = PERIOD_DAYS * 86_400
    cutoffs = [start + j * span for j in range(N_PERIODS + 1)]

    stance = {u: rng.choices("ANP", weights=(0.35, 0.3, 0.35))[0] for u in users}
    records: list[dict] = []          # in chronological order
    children: dict[str, int] = {}
    serial = rng.randrange(10**6, 10**7)

    for period in range(N_PERIODS):
        if period:
            for u in users:
                if rng.random() < 0.2:
                    stance[u] = rng.choice("ANP")
        slots: list[str] = []
        for u in users:
            if rng.random() < PARTICIPATION:
                extra = 0
                while rng.random() < EXTRA_ENTRIES_MEAN / (1 + EXTRA_ENTRIES_MEAN):
                    extra += 1
                slots.extend([u] * (1 + extra))
        rng.shuffle(slots)
        # Strictly increasing timestamps inside the period, away from its edges.
        lo, hi = cutoffs[period] + 3_600, cutoffs[period + 1] - 3_600
        stamps = sorted(rng.sample(range(lo, hi), len(slots)))
        threads: list[list[str]] = []
        for author, ts in zip(slots, stamps):
            serial += rng.randrange(1, 40)
            is_post = not threads or rng.random() < POST_PROB
            record = {"id": ("t3_" if is_post else "t1_") + _base36(serial),
                      "author": author, "created_utc": ts,
                      "body": text.entry(stance[author], users),
                      "parent_id": None, "subreddit": "ukpolitics",
                      "score": int(rng.expovariate(0.2)) - 1}
            if is_post:
                threads.append([record["id"]])
            else:
                # Recent threads draw most replies; inside a thread, the
                # root takes a third, the rest reply to any earlier entry.
                thread = threads[max(0, len(threads) - 1 - int(rng.expovariate(1 / 12)))]
                parent = thread[0] if rng.random() < 0.35 else rng.choice(thread)
                record["parent_id"] = parent
                children[parent] = children.get(parent, 0) + 1
                thread.append(record["id"])
            records.append(record)

    planted = Planted()
    comments = [r for r in records if r["parent_id"] is not None]
    picked = rng.sample(range(len(comments)), DANGLING + 4 * EARLY_CHILDREN)
    dangling = [comments[i] for i in picked[:DANGLING]]
    for record in dangling:
        record["parent_id"] = f"t1_gone{_base36(rng.randrange(36**5))}"
    planted.orphan_roots = len(dangling)
    by_id = {r["id"]: r for r in records}
    # Child-before-parent only on leaves, so each plant is exactly one clamp.
    early = [comments[i] for i in picked[DANGLING:]
             if children.get(comments[i]["id"], 0) == 0][:EARLY_CHILDREN]
    clamped_ts: dict[str, int] = {}
    for record in early:
        parent_ts = by_id[record["parent_id"]]["created_utc"]
        clamped_ts[record["id"]] = parent_ts
        record["created_utc"] = parent_ts - rng.randint(60, 3 * 86_400)
    planted.clamped_timestamps = len(early)

    # Parent-link cycles: fresh comments whose parents form a ring.
    for size in CYCLES:
        ids = []
        for _ in range(size):
            serial += rng.randrange(1, 40)
            ids.append("t1_" + _base36(serial))
        period = rng.randrange(N_PERIODS)
        for i, entry_id in enumerate(ids):
            author = rng.choice(users)
            ts = rng.randrange(cutoffs[period] + 3_600, cutoffs[period + 1] - 3_600)
            record = {"id": entry_id, "author": author, "created_utc": ts,
                      "body": text.entry(stance[author], users),
                      "parent_id": ids[(i + 1) % size], "subreddit": "ukpolitics",
                      "score": 1}
            records.insert(bisect.bisect([r["created_utc"] for r in records], ts), record)
    n_cycle = sum(CYCLES)
    planted.broken_cycles = n_cycle
    planted.orphan_roots += n_cycle

    for record in records:
        if rng.random() < DELETED_PROB:
            record["author"] = rng.choice(DELETED_AUTHOR_VALUES)
            planted.deleted_authors += 1

    # Expected ingest view: repaired timestamps, per-period counts, user-periods.
    period_counts = [0] * N_PERIODS
    user_periods: set[tuple[str, int]] = set()
    for record in records:
        ts = clamped_ts.get(record["id"], record["created_utc"])
        period = bisect.bisect_right(cutoffs, ts) - 1
        period_counts[period] += 1
        author = record["author"]
        user_periods.add((SENTINEL if author in DELETED_AUTHOR_VALUES else author, period))
    planted.entries = len(records)
    planted.threads = sum(1 for r in records if r["parent_id"] is None) \
        + len(dangling) + n_cycle
    planted.periods = {str(j): n for j, n in enumerate(period_counts)}
    planted.labeled_user_periods = len(user_periods)
    planted.feature_user_periods = sum(1 for u, _ in user_periods if u != SENTINEL)

    lines = [json.dumps(r, separators=(",", ":")) for r in records]
    # Duplicate ids: a later record reuses an earlier id (first one wins).
    for _ in range(DUPLICATES):
        original = records[rng.randrange(len(records))]
        copy = dict(original, body=original["body"] + " [edited]")
        at = lines.index(json.dumps(original, separators=(",", ":")))
        lines.insert(rng.randrange(at + 1, len(lines) + 1), json.dumps(copy, separators=(",", ":")))
    planted.duplicate_ids = DUPLICATES
    for i in range(MALFORMED):
        lines.insert(rng.randrange(len(lines) + 1), _malformed_line(i, rng, cutoffs[0]))
        if i % 5 == 0:
            lines.insert(rng.randrange(len(lines) + 1), "")
    planted.malformed_records = MALFORMED
    return ScrapedDump(text="\n".join(lines) + "\n",
                       cutoffs=[_iso(c) for c in cutoffs], planted=planted)


def _malformed_line(i: int, rng: random.Random, ts: int) -> str:
    """One record the parser must count as malformed and skip."""
    entry_id = f"t1_bad{i}"
    kind = i % 8
    if kind == 0:
        return '{"id":"%s","author":"x","body":"truncated re' % entry_id
    if kind == 1:
        return json.dumps([entry_id, "author", ts])
    if kind == 2:
        return json.dumps({"id": entry_id, "body": "no author field", "created_utc": ts})
    if kind == 3:
        return json.dumps({"id": entry_id, "author": "x", "created_utc": ts + 0.5})
    if kind == 4:
        return json.dumps({"id": entry_id, "author": "x", "created_utc": "yesterday"})
    if kind == 5:
        return json.dumps({"id": entry_id, "author": "x", "created_utc": ts, "body": 42})
    if kind == 6:
        return json.dumps({"id": "", "author": "x", "created_utc": ts})
    return json.dumps({"id": entry_id, "author": "x", "created_utc": ts,
                       "parent_id": entry_id, "body": f"self parent {rng.random()}"})
