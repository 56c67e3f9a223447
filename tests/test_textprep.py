import re
import unicodedata

import pytest
from hypothesis import given, settings, strategies as st

from stancecast import textprep
from stancecast.synth import SyntheticConfig, generate_synthetic_corpus
from stancecast.textprep import (
    STOPWORDS,
    extract_hashtags,
    porter_stem,
    preprocess,
    strip_diacritics,
    tokenize,
)

from test_token_pass import _PHRASES

# Published reference pairs for the suffix stripper.
PORTER_VECTORS = [
    ("caresses", "caress"), ("ponies", "poni"), ("ties", "ti"),
    ("caress", "caress"), ("cats", "cat"), ("feed", "feed"),
    ("agreed", "agre"), ("plastered", "plaster"), ("motoring", "motor"),
    ("sing", "sing"), ("conflated", "conflat"), ("troubled", "troubl"),
    ("sized", "size"), ("hopping", "hop"), ("tanned", "tan"),
    ("falling", "fall"), ("hissing", "hiss"), ("fizzed", "fizz"),
    ("failing", "fail"), ("filing", "file"), ("happy", "happi"),
    ("sky", "sky"), ("relational", "relat"), ("conditional", "condit"),
    ("rational", "ration"), ("valenci", "valenc"), ("hesitanci", "hesit"),
    ("digitizer", "digit"), ("conformabli", "conform"), ("radicalli", "radic"),
    ("differentli", "differ"), ("vileli", "vile"), ("analogousli", "analog"),
    ("vietnamization", "vietnam"), ("predication", "predic"),
    ("operator", "oper"), ("feudalism", "feudal"), ("decisiveness", "decis"),
    ("hopefulness", "hope"), ("callousness", "callous"), ("formaliti", "formal"),
    ("sensitiviti", "sensit"), ("sensibiliti", "sensibl"),
    ("triplicate", "triplic"), ("formative", "form"), ("formalize", "formal"),
    ("electriciti", "electr"), ("electrical", "electr"), ("hopeful", "hope"),
    ("goodness", "good"), ("revival", "reviv"), ("allowance", "allow"),
    ("inference", "infer"), ("airliner", "airlin"), ("gyroscopic", "gyroscop"),
    ("adjustable", "adjust"), ("defensible", "defens"), ("irritant", "irrit"),
    ("replacement", "replac"), ("adjustment", "adjust"), ("dependent", "depend"),
    ("adoption", "adopt"), ("homologou", "homolog"), ("communism", "commun"),
    ("activate", "activ"), ("angulariti", "angular"), ("homologous", "homolog"),
    ("effective", "effect"), ("bowdlerize", "bowdler"), ("probate", "probat"),
    ("rate", "rate"), ("cease", "ceas"), ("controll", "control"), ("roll", "roll"),
]


@pytest.mark.parametrize("word,expected", PORTER_VECTORS)
def test_porter_reference_vectors(word, expected):
    assert porter_stem(word) == expected


def test_porter_short_words_untouched():
    assert porter_stem("a") == "a"
    assert porter_stem("is") == "is"


class TestPreprocess:
    def test_basic_example(self):
        assert preprocess("Brexit means BREXIT!") == ["brexit", "mean", "brexit"]

    def test_empty(self):
        assert preprocess("") == []

    def test_all_removed_categories(self):
        assert preprocess("#voteleave @user http://x.y") == []

    def test_urls_and_mentions_stripped(self):
        assert preprocess("see https://example.com/a?b=c and www.foo.org now") == ["see"]
        assert preprocess("@alice talked to @bob") == ["talk"]

    def test_diacritics_folded(self):
        assert preprocess("naïve café") == ["naiv", "cafe"]

    def test_stopwords_removed(self):
        tokens = preprocess("this is the only remaining signal")
        assert tokens == ["remain", "signal"]

    def test_numbers_dropped(self):
        assert preprocess("vote 2016 results") == ["vote", "result"]


def test_tokenize_keeps_stopwords():
    assert "the" in tokenize("the vote")
    assert "the" in STOPWORDS


def test_strip_diacritics():
    assert strip_diacritics("Łódź naïve") != ""
    assert strip_diacritics("café") == "cafe"


class TestExtractHashtags:
    def test_lowercases(self):
        assert extract_hashtags("ready #VoteLeave now") == ["voteleave"]

    def test_multiple_occurrences_kept(self):
        assert extract_hashtags("#a #b #a") == ["a", "b", "a"]

    def test_no_tags(self):
        assert extract_hashtags("plain text") == []


# Texts mixing arbitrary Unicode with the pieces the tokenizer treats
# specially: URLs, hashtags, mentions, combining marks and stopwords.
_PIECES = st.one_of(
    st.text(),
    st.sampled_from(["http://x.y/z", "www.a.b", "#tag", "@who", "e\u0301",
                     "\u0301", "the", "Running", "caf\u00e9", "\u0130", "\u03a3"]),
)
_TEXTS = st.lists(st.lists(_PIECES, max_size=6).map(" ".join), max_size=6)


@settings(deadline=None)
@given(_TEXTS)
def test_preprocess_of_joined_texts_is_concatenation(texts):
    # Documents are built from per-entry tokens, which relies on this.
    assert preprocess(" ".join(texts)) == [t for text in texts for t in preprocess(text)]


@settings(deadline=None)
@given(st.from_regex(r"[a-z]{1,20}", fullmatch=True))
def test_memoized_stem_matches_unmemoized(word):
    assert porter_stem(word) == porter_stem.__wrapped__(word)


# ---------------------------------------------------------------------------
# The ASCII and suffix shortcuts against the code without them
# ---------------------------------------------------------------------------


def reference_tokenize(text):
    """`tokenize` with NFKD applied to every text, ASCII too."""
    text = text.lower()
    text = re.sub(r"(?:https?://|www\.)\S+", " ", text)
    text = re.sub(r"#\w+", " ", text)
    text = re.sub(r"@\w+", " ", text)
    decomposed = unicodedata.normalize("NFKD", text)
    text = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    return re.findall(r"[a-z]+", text)


def _reference_longest_match(word, suffixes):
    best = None
    for suffix in suffixes:
        if word.endswith(suffix) and (best is None or len(suffix) > len(best)):
            best = suffix
    return best


def _reference_apply_table(word, rules):
    suffix = _reference_longest_match(word, [s for s, _ in rules])
    if suffix is None:
        return word
    stem = word[: -len(suffix)]
    return stem + dict(rules)[suffix] if textprep._measure(stem) > 0 else word


def _reference_step4(word):
    suffix = _reference_longest_match(word, textprep._STEP4_SUFFIXES)
    if suffix is None:
        return word
    stem = word[: -len(suffix)]
    if textprep._measure(stem) <= 1:
        return word
    if suffix == "ion" and not stem.endswith(("s", "t")):
        return word
    return stem


def reference_stem(word):
    """`porter_stem` scanning every suffix, with the rule tables rebuilt per call."""
    if len(word) < 3:
        return word
    for step in (textprep._step1a, textprep._step1b, textprep._step1c,
                 lambda w: _reference_apply_table(w, textprep._STEP2_RULES),
                 lambda w: _reference_apply_table(w, textprep._STEP3_RULES),
                 _reference_step4, textprep._step5a, textprep._step5b):
        word = step(word)
    return word


_ACCENTED = "àáâãäåçèéêëìíîïñòóôõöøùúûüýÿÀÉÎÕÜŁłŐőŠšŽžĞğİıßÆæŒœ"
_COMBINING = "\u0300\u0301\u0302\u0303\u0308\u030a\u0327\u0328\u0331\u20d7"
_FULLWIDTH = "".join(chr(c) for c in range(0xFF21, 0xFF3B)) + "".join(
    chr(c) for c in range(0xFF41, 0xFF5B))
_LIGATURES = "\ufb00\ufb01\ufb02\ufb03\ufb04\u0132\u0133\u01c4\u01c6\u1e9e"
_MIXED_TEXT = st.text(alphabet=st.one_of(
    st.characters(max_codepoint=127), st.sampled_from(_ACCENTED),
    st.sampled_from(_COMBINING), st.sampled_from(_FULLWIDTH),
    st.sampled_from(_LIGATURES)), max_size=80)


@settings(deadline=None, max_examples=300)
@given(_MIXED_TEXT)
def test_tokenize_matches_reference_on_mixed_scripts(text):
    assert tokenize(text) == reference_tokenize(text)
    for token in tokenize(text):
        assert porter_stem.__wrapped__(token) == reference_stem(token)


_SUFFIXES = [s for s, _ in textprep._STEP2_RULES + textprep._STEP3_RULES]
_SUFFIXES += [*textprep._STEP4_SUFFIXES, "sses", "ies", "eed", "ed", "ing", "y", "e", "ll"]


@settings(deadline=None, max_examples=500)
@given(st.from_regex(r"[a-z]{0,10}", fullmatch=True), st.sampled_from(["", *_SUFFIXES]))
def test_stem_matches_reference_on_suffixed_words(stem, suffix):
    word = stem + suffix
    assert porter_stem.__wrapped__(word) == reference_stem(word)


def test_stem_matches_reference_on_corpus_words():
    generated = generate_synthetic_corpus(SyntheticConfig(n_users=60, n_periods=3), seed=5)
    texts = [entry.content for entry in generated.entries] + list(_PHRASES)
    words = {token for text in texts for token in reference_tokenize(text)}
    words |= {word for word, _ in PORTER_VECTORS}
    assert len(words) > 50
    for text in texts:
        assert tokenize(text) == reference_tokenize(text)
    for word in sorted(words):
        assert porter_stem.__wrapped__(word) == reference_stem(word), word
