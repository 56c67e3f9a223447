"""Text preprocessing: tokenization, stopword removal, suffix stripping.

The token stream is meant to be bit-identical across machines, so the
suffix stripper is a from-scratch implementation of Porter's published
procedure (original rule tables) rather than a library binding, and the
stopword list is fixed and shipped below.
"""

from __future__ import annotations

import functools
import re
import unicodedata

_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_HASHTAG_RE = re.compile(r"#(\w+)")
_MENTION_RE = re.compile(r"@\w+")
_TOKEN_RE = re.compile(r"[a-z]+")

# Fixed English stopword list. Single letters cover contraction debris
# left by the letters-only tokenizer ("don't" -> "don", "t").
STOPWORDS = frozenset("""
i me my myself we our ours ourselves you your yours yourself yourselves
he him his himself she her hers herself it its itself they them their
theirs themselves what which who whom this that these those am is are
was were be been being have has had having do does did doing a an the
and but if or because as until while of at by for with about against
between into through during before after above below to from up down in
out on off over under again further then once here there when where why
how all any both each few more most other some such no nor not only own
same so than too very s t can will just don should now d ll m o re ve y
ain aren couldn didn doesn hadn hasn haven isn ma mightn mustn needn
shan shouldn wasn weren won wouldn
""".split())


def strip_diacritics(text: str) -> str:
    # NFKD leaves ASCII as it is, and no ASCII character is combining.
    if text.isascii():
        return text
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def extract_hashtags(text: str) -> list[str]:
    """Lowercased hashtag bodies from raw (unpreprocessed) text."""
    return [match.group(1).lower() for match in _HASHTAG_RE.finditer(text)]


def tokenize(text: str) -> list[str]:
    """Lowercase, drop URLs / hashtags / mentions / diacritics, keep letter runs."""
    text = text.lower()
    text = _URL_RE.sub(" ", text)
    text = _HASHTAG_RE.sub(" ", text)
    text = _MENTION_RE.sub(" ", text)
    text = strip_diacritics(text)
    return _TOKEN_RE.findall(text)


def preprocess(text: str) -> list[str]:
    """Full token pipeline: tokenize, remove stopwords, stem."""
    return [porter_stem(token) for token in tokenize(text) if token not in STOPWORDS]


# ---------------------------------------------------------------------------
# Porter suffix stripping
# ---------------------------------------------------------------------------

_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch != "y":
        return True
    # y after a consonant acts as a vowel (syzygy), otherwise consonant
    # (toy). Within a run of y's the classification alternates, so resolve
    # the run iteratively instead of recursing per position.
    start = i
    while start > 0 and word[start - 1] == "y":
        start -= 1
    if start == 0:
        run_head_consonant = True
    else:
        run_head_consonant = word[start - 1] in _VOWELS
    return run_head_consonant == ((i - start) % 2 == 0)


def _measure(stem: str) -> int:
    """Number of vowel-to-consonant transitions, the m of [C](VC)^m[V]."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        vowel = not _is_consonant(stem, i)
        if prev_vowel and not vowel:
            m += 1
        prev_vowel = vowel
    return m


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (len(word) >= 2 and word[-1] == word[-2]
            and _is_consonant(word, len(word) - 1))


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    if not (_is_consonant(word, len(word) - 3)
            and not _is_consonant(word, len(word) - 2)
            and _is_consonant(word, len(word) - 1)):
        return False
    return word[-1] not in "wxy"


# (suffix, replacement) tables; within a step the longest matching suffix
# wins and its condition decides the step's outcome.
_STEP2_RULES = (
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
)

_STEP3_RULES = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
)

# Per step: the suffix tuple `_longest_match` scans and the replacements.
_STEP2 = (tuple(s for s, _ in _STEP2_RULES), dict(_STEP2_RULES))
_STEP3 = (tuple(s for s, _ in _STEP3_RULES), dict(_STEP3_RULES))

_STEP4_SUFFIXES = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


def _longest_match(word: str, suffixes: tuple[str, ...]) -> str | None:
    if not word.endswith(suffixes):
        return None
    best = None
    for suffix in suffixes:
        if word.endswith(suffix) and (best is None or len(suffix) > len(best)):
            best = suffix
    return best


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        return word[:-1] if _measure(word[:-3]) > 0 else word
    removed = False
    if word.endswith("ed") and _contains_vowel(word[:-2]):
        word = word[:-2]
        removed = True
    elif word.endswith("ing") and _contains_vowel(word[:-3]):
        word = word[:-3]
        removed = True
    if not removed:
        return word
    if word.endswith(("at", "bl", "iz")):
        return word + "e"
    if _ends_double_consonant(word) and word[-1] not in "lsz":
        return word[:-1]
    if _measure(word) == 1 and _ends_cvc(word):
        return word + "e"
    return word


def _step1c(word: str) -> str:
    if word.endswith("y") and _contains_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


def _apply_table(word: str, step: tuple[tuple[str, ...], dict[str, str]],
                 min_measure: int) -> str:
    suffixes, replacements = step
    suffix = _longest_match(word, suffixes)
    if suffix is None:
        return word
    stem = word[: -len(suffix)]
    if _measure(stem) > min_measure - 1:
        return stem + replacements[suffix]
    return word


def _step4(word: str) -> str:
    suffix = _longest_match(word, _STEP4_SUFFIXES)
    if suffix is None:
        return word
    stem = word[: -len(suffix)]
    if _measure(stem) <= 1:
        return word
    if suffix == "ion" and not stem.endswith(("s", "t")):
        return word
    return stem


def _step5a(word: str) -> str:
    if not word.endswith("e"):
        return word
    stem = word[:-1]
    m = _measure(stem)
    if m > 1 or (m == 1 and not _ends_cvc(stem)):
        return stem
    return word


def _step5b(word: str) -> str:
    if (word.endswith("ll") and _measure(word) > 1
            and _ends_double_consonant(word)):
        return word[:-1]
    return word


@functools.cache
def porter_stem(word: str) -> str:
    """Stem one lowercase word with the Porter procedure (memoized: pure str -> str)."""
    if len(word) < 3:
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _apply_table(word, _STEP2, min_measure=1)
    word = _apply_table(word, _STEP3, min_measure=1)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word
