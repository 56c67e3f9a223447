"""Synthetic corpus generator with planted stance dynamics.

Each period, active users are dealt into threads. Every thread gets a
focal stance and draws most of its members from that stance's pool, so
thread composition varies independently of any single member's stance.
The transition rule then ties the next-period stance to exposure: with
probability `transition_strength` a user adopts the majority stance of
the entries in the threads they engaged in (falling back to their
current stance when unengaged or tied), otherwise they redraw uniformly.

Output is deterministic for a fixed seed, byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields

from .corpus import Entry, TimePartition
from .stance import STANCE_INDEX, STANCE_ORDER, Stance

# Letters safe under the token pipeline: no vowels (so no suffix rule of
# the stemmer fires) and no trailing-s collisions.
_WORD_ALPHABET = "bcdfghjklmnpqrtvwxz"
# `_word` spells two letters of it, so a vocabulary holds at most 361 words.
_MAX_VOCAB = len(_WORD_ALPHABET) ** 2

_PRO_HASHTAGS = ("#voteleave", "#takebackcontrol", "#betteroffout")
_AGAINST_HASHTAGS = ("#strongerin", "#bremain", "#intogether")


@dataclass(frozen=True)
class SyntheticConfig:
    n_users: int = 100
    n_periods: int = 4
    threads_per_period: int = 10
    participation: float = 1.0
    entries_per_user: int = 2
    words_per_entry: int = 8
    stance_word_prob: float = 0.6
    hashtag_prob: float = 0.0
    thread_focus: float = 0.5
    chain_bias: float = 0.0
    transition_strength: float = 1.0
    stance_vocab_size: int = 20
    common_vocab_size: int = 40
    period_seconds: int = 100_000
    start_time: int = 1_000_000

    def __post_init__(self) -> None:
        for f in fields(self):  # an int field takes an int, not a bool or a float
            if type(f.default) is int and type(getattr(self, f.name)) is not int:
                raise ValueError(f"{f.name} must be an integer, got {getattr(self, f.name)!r}")
        for name in ("transition_strength", "thread_focus", "chain_bias", "hashtag_prob",
                     "stance_word_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if not 0.0 < self.participation <= 1.0:
            raise ValueError("participation must lie in (0, 1]")
        if min(self.n_users, self.n_periods, self.threads_per_period,
               self.entries_per_user, self.words_per_entry) < 1:
            raise ValueError("counts must be positive")
        if self.period_seconds < 1:
            raise ValueError("period_seconds must be at least 1")
        # `_content` draws from a vocabulary unless its probability rules it out.
        for name, least in (("stance_vocab_size", int(self.stance_word_prob > 0)),
                            ("common_vocab_size", int(self.stance_word_prob < 1))):
            if not least <= getattr(self, name) <= _MAX_VOCAB:
                raise ValueError(f"{name} must be at least {least} and at most {_MAX_VOCAB}")


@dataclass
class SyntheticCorpus:
    entries: list[Entry]
    stances: dict[tuple[str, int], Stance]
    cutoffs: tuple[int, ...]

    @property
    def partition(self) -> TimePartition:
        return TimePartition(cutoffs=self.cutoffs)


def _word(prefix: str, i: int) -> str:
    high, low = divmod(i, len(_WORD_ALPHABET))
    return prefix + _WORD_ALPHABET[high] + _WORD_ALPHABET[low]


def _vocabularies(config: SyntheticConfig) -> tuple[dict[Stance, list[str]], list[str]]:
    per_stance = {
        Stance.AGAINST: [_word("ant", i) for i in range(config.stance_vocab_size)],
        Stance.NEUTRAL: [_word("neu", i) for i in range(config.stance_vocab_size)],
        Stance.PRO: [_word("pro", i) for i in range(config.stance_vocab_size)],
    }
    common = [_word("com", i) for i in range(config.common_vocab_size)]
    return per_stance, common


def generate_synthetic_corpus(config: SyntheticConfig, seed: int) -> SyntheticCorpus:
    """Generate entries plus the ground-truth stance trajectory per user."""
    rng = random.Random(seed)
    users = [f"user{i:04d}" for i in range(config.n_users)]
    stance_vocab, common_vocab = _vocabularies(config)
    hashtags = {Stance.PRO: _PRO_HASHTAGS, Stance.AGAINST: _AGAINST_HASHTAGS}

    cutoffs = tuple(
        config.start_time + j * config.period_seconds
        for j in range(config.n_periods + 1)
    )

    current = {user: rng.choice(STANCE_ORDER) for user in users}
    truth: dict[tuple[str, int], Stance] = {}
    entries: list[Entry] = []
    entry_serial = 0

    for period in range(config.n_periods):
        for user in users:
            truth[(user, period)] = current[user]

        active = [u for u in users if rng.random() < config.participation]
        # Per member, the entries of the threads they engaged in, counted in
        # STANCE_ORDER slots.
        exposures: dict[str, list[int]] = {}
        if active:
            threads = _deal_threads(active, current, config, rng)
            period_start = cutoffs[period]
            tick = 0
            for members in threads:
                thread_tally = [0, 0, 0]
                thread_ids: list[str] = []
                for round_no in range(config.entries_per_user):
                    for member in members:
                        if config.chain_bias and thread_ids and rng.random() < config.chain_bias:
                            parent = thread_ids[-1]
                        elif thread_ids:
                            parent = rng.choice(thread_ids)
                        else:
                            parent = None
                        stance = current[member]
                        content = _content(stance, stance_vocab, common_vocab,
                                           hashtags, config, rng)
                        timestamp = period_start + min(tick, config.period_seconds - 1)
                        tick += 1
                        entry = Entry(
                            id=f"e{entry_serial:07d}",
                            author=member,
                            content=content,
                            timestamp=timestamp,
                            parent_id=parent,
                        )
                        entry_serial += 1
                        entries.append(entry)
                        thread_ids.append(entry.id)
                        thread_tally[STANCE_INDEX[stance]] += 1
                for member in members:
                    tally = exposures.setdefault(member, [0, 0, 0])
                    for slot, count in enumerate(thread_tally):
                        tally[slot] += count

        if period + 1 < config.n_periods:
            for user in users:
                if rng.random() < config.transition_strength:
                    exposure = exposures.get(user)
                    if exposure:
                        current[user] = _majority(exposure, current[user])
                else:
                    current[user] = rng.choice(STANCE_ORDER)

    return SyntheticCorpus(entries=entries, stances=truth, cutoffs=cutoffs)


def _deal_threads(
    active: list[str],
    current: dict[str, Stance],
    config: SyntheticConfig,
    rng: random.Random,
) -> list[list[str]]:
    """Split active users into threads, each biased toward a focal stance."""
    pools: dict[Stance, list[str]] = {s: [] for s in STANCE_ORDER}
    for user in active:
        pools[current[user]].append(user)
    for stance in STANCE_ORDER:
        rng.shuffle(pools[stance])

    n_threads = min(config.threads_per_period, len(active))
    base, extra = divmod(len(active), n_threads)
    threads: list[list[str]] = []
    for i in range(n_threads):
        size = base + (1 if i < extra else 0)
        focal = rng.choice(STANCE_ORDER)
        members: list[str] = []
        for _ in range(size):
            want = focal if rng.random() < config.thread_focus else rng.choice(STANCE_ORDER)
            if not pools[want]:
                # Fall back to the fullest remaining pool, stance order on ties.
                want = max(STANCE_ORDER, key=lambda s: (len(pools[s]), -STANCE_ORDER.index(s)))
            members.append(pools[want].pop())
        threads.append(members)
    return threads


def _majority(tally: list[int], fallback: Stance) -> Stance:
    """The most frequent stance of a non-empty `tally` (counts in STANCE_ORDER slots)."""
    top = max(tally)
    leaders = [s for s, count in zip(STANCE_ORDER, tally) if count == top]
    if len(leaders) == 1:
        return leaders[0]
    return fallback if fallback in leaders else leaders[0]


def _content(
    stance: Stance,
    stance_vocab: dict[Stance, list[str]],
    common_vocab: list[str],
    hashtags: dict[Stance, tuple[str, ...]],
    config: SyntheticConfig,
    rng: random.Random,
) -> str:
    words = []
    for _ in range(config.words_per_entry):
        if rng.random() < config.stance_word_prob:
            words.append(rng.choice(stance_vocab[stance]))
        else:
            words.append(rng.choice(common_vocab))
    if stance in hashtags and rng.random() < config.hashtag_prob:
        words.append(rng.choice(hashtags[stance]))
    return " ".join(words)


def truth_to_tsv(corpus: SyntheticCorpus) -> str:
    """Render the ground-truth trajectories as a (user, period, stance) TSV."""
    lines = ["user\tperiod\tstance"]
    for (user, period) in sorted(corpus.stances):
        lines.append(f"{user}\t{period}\t{corpus.stances[(user, period)].value}")
    return "\n".join(lines) + "\n"
