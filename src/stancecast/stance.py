"""Per-user-per-period stance labeling via hashtag weak supervision.

The labeling chain: count pro/against hashtag occurrences per user,
keep only prolific users with lexicon usage, weak-label the score
extremes, train a multinomial Naive Bayes on their aggregated documents,
then score every (user, period) document and map the pro-side
probability to one of three stances through fixed cutoffs.
"""

from __future__ import annotations

import enum
import logging
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .corpus import SENTINEL_AUTHOR, Entry, TimePartition, group_user_period
from .textprep import extract_hashtags

log = logging.getLogger("stancecast.stance")


class Stance(enum.Enum):
    AGAINST = "A"
    NEUTRAL = "N"
    PRO = "P"


STANCE_ORDER: tuple[Stance, Stance, Stance] = (Stance.AGAINST, Stance.NEUTRAL, Stance.PRO)
STANCE_INDEX: dict[Stance, int] = {s: i for i, s in enumerate(STANCE_ORDER)}

# Default pro/against hashtag lists for the Brexit case study.
DEFAULT_PRO_HASHTAGS = frozenset({
    "voteleave", "inorout", "voteout", "takecontrol", "borisjohnson",
    "lexit", "independenceday", "ivotedleave", "projectfear", "britain",
    "boris", "go", "projecthope", "takebackcontrol", "labourleave",
    "no2eu", "betteroffout", "june23", "democracy",
})
DEFAULT_AGAINST_HASHTAGS = frozenset({
    "strongerin", "intogether", "infor", "votein", "libdems", "voting",
    "incrowd", "bremain", "greenerin",
})


@dataclass(frozen=True)
class HashtagLexicon:
    pro: frozenset[str]
    against: frozenset[str]

    def __post_init__(self) -> None:
        if not self.pro or not self.against:
            raise ValueError("both lexicon sides must be non-empty")
        if self.pro & self.against:
            raise ValueError("pro and against hashtag sets must be disjoint")

    @classmethod
    def default(cls) -> "HashtagLexicon":
        return cls(pro=DEFAULT_PRO_HASHTAGS, against=DEFAULT_AGAINST_HASHTAGS)

    @classmethod
    def from_file(cls, path) -> "HashtagLexicon":
        """Read a two-section lexicon file: `[pro]` / `[against]` headers,
        one hashtag per line, leading `#` optional."""
        sections: dict[str, set[str]] = {"pro": set(), "against": set()}
        current: Optional[str] = None
        with open(path, encoding="utf-8-sig") as handle:
            for number, raw in enumerate(handle, 1):
                line = raw.strip()
                if not line:
                    continue
                if line.lower() in ("[pro]", "[against]"):
                    current = line.strip("[]").lower()
                    continue
                if current is None:
                    raise ValueError(f"line {number}: hashtag before any section header")
                sections[current].add(line.lstrip("#").lower())
        return cls(pro=frozenset(sections["pro"]), against=frozenset(sections["against"]))


@dataclass(frozen=True)
class UserStats:
    messages: int
    pro_tags: int
    against_tags: int


def collect_user_stats(
    entries: Iterable[Entry],
    lexicon: HashtagLexicon,
    distinct_tags: bool = False,
) -> dict[str, UserStats]:
    """Whole-corpus message and hashtag counts per author (sentinel excluded).

    With `distinct_tags` each lexicon hashtag counts once per user instead
    of once per occurrence.
    """
    messages: dict[str, int] = {}
    tags: dict[str, list[str]] = {}
    for entry in entries:
        if entry.author == SENTINEL_AUTHOR:
            continue
        messages[entry.author] = messages.get(entry.author, 0) + 1
        tags.setdefault(entry.author, []).extend(extract_hashtags(entry.content))
    out: dict[str, UserStats] = {}
    for user, count in messages.items():
        used = set(tags[user]) if distinct_tags else tags[user]
        out[user] = UserStats(messages=count,
                              pro_tags=sum(tag in lexicon.pro for tag in used),
                              against_tags=sum(tag in lexicon.against for tag in used))
    return out


def select_weak_labels(
    stats: Mapping[str, UserStats],
    min_messages: int = 50,
    extreme_fraction: float = 0.10,
) -> dict[str, Stance]:
    """Weak-label the leave-score extremes of the eligible users.

    Eligible users wrote at least `min_messages` messages and used the
    lexicon at least once. The bottom decile of the score ranking is
    labeled Against, the top decile Pro; ties at decile boundaries break
    by user id. A decile member with the wrong score sign is dropped.
    """
    if not 0 < extreme_fraction <= 0.5:
        raise ValueError("extreme_fraction must lie in (0, 0.5]")
    eligible = [
        (user, s.pro_tags - s.against_tags) for user, s in stats.items()
        if s.messages >= min_messages and s.pro_tags + s.against_tags > 0
    ]
    if len(eligible) < 20:
        raise ValueError(
            f"only {len(eligible)} eligible users; need at least 20 for both deciles"
        )
    decile = int(len(eligible) * extreme_fraction)
    bottom = sorted(eligible, key=lambda item: (item[1], item[0]))[:decile]
    top = sorted(eligible, key=lambda item: (-item[1], item[0]))[:decile]
    labels: dict[str, Stance] = {}
    for user, score in bottom:
        if score < 0:
            labels[user] = Stance.AGAINST
    for user, score in top:
        if score > 0:
            labels[user] = Stance.PRO
    return labels


@dataclass
class NBModel:
    """Multinomial Naive Bayes over the Against/Pro weak classes."""

    vocabulary: tuple[str, ...]
    classes: tuple[Stance, Stance]
    log_prior: np.ndarray
    log_likelihood: np.ndarray
    alpha: float
    vocab_index: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self.vocab_index:
            self.vocab_index = {w: i for i, w in enumerate(self.vocabulary)}


def train_nb(
    documents: Sequence[Sequence[str]],
    labels: Sequence[Stance],
    alpha: float = 1.0,
    min_df: int = 1,
) -> NBModel:
    """Train multinomial NB with Laplace smoothing `alpha`.

    The vocabulary keeps tokens whose document frequency is at least
    `min_df`; pass the corpus-level rare-word cut here.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if len(documents) != len(labels):
        raise ValueError("documents and labels must align")
    classes = (Stance.AGAINST, Stance.PRO)
    class_counts = {c: 0 for c in classes}
    for label in labels:
        if label not in class_counts:
            raise ValueError(f"unexpected weak label {label}")
        class_counts[label] += 1
    for c, n in class_counts.items():
        if n == 0:
            raise ValueError(f"class {c.value} has no documents")

    df = Counter(token for doc in documents for token in set(doc))
    vocabulary = tuple(sorted(t for t, n in df.items() if n >= min_df))
    vocab_index = {w: i for i, w in enumerate(vocabulary)}

    counts = np.zeros((2, len(vocabulary)), dtype=np.float64)
    for doc, label in zip(documents, labels):
        cols = [col for col in map(vocab_index.get, doc) if col is not None]
        counts[classes.index(label)] += np.bincount(np.array(cols, dtype=np.intp),
                                                    minlength=len(vocabulary))

    totals = counts.sum(axis=1, keepdims=True)
    # max(..., 1) only guards the log when the vocabulary is empty; the
    # likelihood array is empty then anyway and the posterior is the prior.
    log_likelihood = np.log(counts + alpha) - np.log(totals + alpha * max(len(vocabulary), 1))
    priors = np.array([class_counts[c] for c in classes], dtype=np.float64)
    log_prior = np.log(priors) - np.log(priors.sum())
    return NBModel(vocabulary=vocabulary, classes=classes, log_prior=log_prior,
                   log_likelihood=log_likelihood, alpha=alpha, vocab_index=vocab_index)


def nb_leave_probability(model: NBModel, tokens: Sequence[str]) -> float:
    """Posterior probability of the Pro class; unknown tokens are ignored."""
    cols = [col for col in map(model.vocab_index.get, tokens) if col is not None]
    # cumsum adds the columns one by one in token order, as a running sum
    # would; a dot product or .sum() could reorder the adds and change bits.
    terms = np.concatenate((model.log_prior[:, None], model.log_likelihood[:, cols]), axis=1)
    scores = np.cumsum(terms, axis=1)[:, -1]
    scores -= scores.max()
    probs = np.exp(scores)
    probs /= probs.sum()
    return float(probs[model.classes.index(Stance.PRO)])


def stance_from_probability(p: float, lower: float = 0.25, upper: float = 0.75) -> Stance:
    """Map a leave probability to a stance; the boundaries stay Neutral."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    if not 0.0 <= lower < upper <= 1.0:
        raise ValueError("cutoffs must satisfy 0 <= lower < upper <= 1")
    if p < lower:
        return Stance.AGAINST
    if p > upper:
        return Stance.PRO
    return Stance.NEUTRAL


@dataclass
class StanceAssignment:
    """Stance and leave probability per (user, period)."""

    stance: dict[tuple[str, int], Stance] = field(default_factory=dict)
    probability: dict[tuple[str, int], float] = field(default_factory=dict)
    oov_rate: dict[int, float] = field(default_factory=dict)
    _TSV_HEADER = "user\tperiod\tleave_probability\tstance"

    def get(self, user: str, period: int) -> Optional[Stance]:
        return self.stance.get((user, period))

    @classmethod
    def from_truth(cls, truth: Mapping[tuple[str, int], Stance]) -> "StanceAssignment":
        return cls(stance=dict(truth))

    def to_tsv(self) -> str:
        lines = [self._TSV_HEADER]
        for (user, period) in sorted(self.stance):
            prob = self.probability.get((user, period))
            prob_text = "" if prob is None else f"{prob:.12g}"
            lines.append(f"{user}\t{period}\t{prob_text}\t{self.stance[(user, period)].value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_tsv(cls, text: str) -> "StanceAssignment":
        """Parse `to_tsv`'s text; a bad row, a repeated key or no header raises `ValueError`."""
        lines = text.splitlines()
        if lines[:1] != [cls._TSV_HEADER]:
            raise ValueError("line 1: not the header " + cls._TSV_HEADER.replace("\t", ", "))
        assignment = cls()
        first_line: dict[tuple[str, int], int] = {}
        for number, row in enumerate(lines[1:], start=2):
            if row.strip():
                try:
                    user, period, prob, stance = row.split("\t")
                    key = (user, int(period))
                    if first_line.setdefault(key, number) != number:
                        raise ValueError(f"user {user!r} in period {key[1]} repeats line "
                                         f"{first_line[key]}")
                    assignment.stance[key] = Stance(stance)
                    if prob:
                        assignment.probability[key] = float(prob)
                except ValueError as exc:
                    raise ValueError(f"line {number}: {exc}") from None
        return assignment


def label_period_users(
    model: NBModel,
    entries: Iterable[Entry],
    partition: TimePartition,
    lower: float = 0.25,
    upper: float = 0.75,
) -> StanceAssignment:
    """Label every user active in each period from their aggregated text.

    The sentinel user is labeled too, so interaction features can always
    resolve the stance of a tree neighbor; it never becomes a feature
    subject itself. The per-period share of tokens unknown to the model
    is recorded as `oov_rate`.
    """
    assignment = StanceAssignment()
    token_totals: dict[int, int] = {}
    oov_totals: dict[int, int] = {}
    for (user, period), group in group_user_period(entries, partition).items():
        tokens = [t for e in group for t in e.tokens]
        token_totals[period] = token_totals.get(period, 0) + len(tokens)
        oov_totals[period] = oov_totals.get(period, 0) + sum(
            1 for t in tokens if t not in model.vocab_index
        )
        probability = nb_leave_probability(model, tokens)
        key = (user, period)
        assignment.probability[key] = probability
        assignment.stance[key] = stance_from_probability(probability, lower, upper)
    for period, total in sorted(token_totals.items()):
        assignment.oov_rate[period] = (oov_totals[period] / total) if total else 0.0
    return assignment


@dataclass
class WeakTrainingResult:
    model: NBModel
    n_weak_users: int
    n_train: int
    n_eval: int
    holdout_macro_accuracy: float
    holdout_macro_f1: float


def train_weak_supervised(
    entries: list[Entry],
    lexicon: HashtagLexicon,
    *,
    alpha: float = 1.0,
    min_messages: int = 50,
    extreme_fraction: float = 0.10,
    rare_df: int = 5,
    holdout_fraction: float = 0.2,
    distinct_tags: bool = False,
    seed: int = 0,
) -> WeakTrainingResult:
    """Run the full weak-supervision chain and report holdout quality.

    Users are weak-labeled from hashtag extremes, split into a seeded
    stratified train/holdout partition, and the NB model is trained on
    the training side; the holdout macro metrics quantify how well the
    hashtag signal transfers to plain text.
    """
    stats = collect_user_stats(entries, lexicon, distinct_tags=distinct_tags)
    weak = select_weak_labels(stats, min_messages=min_messages,
                              extreme_fraction=extreme_fraction)
    documents: dict[str, list[str]] = {user: [] for user in weak}
    for entry in entries:
        if entry.author in documents:
            documents[entry.author].extend(entry.tokens)

    rng = random.Random(seed)
    train_users: list[str] = []
    eval_users: list[str] = []
    for stance in (Stance.AGAINST, Stance.PRO):
        members = sorted(u for u, s in weak.items() if s == stance)
        rng.shuffle(members)
        n_eval = int(len(members) * holdout_fraction)
        if len(members) >= 2:
            n_eval = max(1, n_eval)
        eval_users.extend(members[:n_eval])
        train_users.extend(members[n_eval:])

    model = train_nb([documents[u] for u in train_users],
                     [weak[u] for u in train_users],
                     alpha=alpha, min_df=rare_df)

    accuracy = f1 = 0.0
    if eval_users:
        predicted = []
        for user in eval_users:
            p = nb_leave_probability(model, documents[user])
            predicted.append(Stance.PRO if p >= 0.5 else Stance.AGAINST)
        # Imported here: the learning package imports this module.
        from .learning.evaluation import macro_metrics
        code = {Stance.AGAINST: 0, Stance.PRO: 1}
        metrics = macro_metrics([code[s] for s in predicted],
                                [code[weak[u]] for u in eval_users], n_classes=2)
        accuracy, f1 = metrics["macro_accuracy"], metrics["macro_f1"]
    log.info("weak-supervised NB: %d labeled users, holdout macro-accuracy %.4f",
             len(weak), accuracy)
    return WeakTrainingResult(
        model=model,
        n_weak_users=len(weak),
        n_train=len(train_users),
        n_eval=len(eval_users),
        holdout_macro_accuracy=accuracy,
        holdout_macro_f1=f1,
    )
