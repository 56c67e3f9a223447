import pytest
from hypothesis import given, settings, strategies as st

from stancecast.textprep import (
    STOPWORDS,
    extract_hashtags,
    porter_stem,
    preprocess,
    strip_diacritics,
    tokenize,
)

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
