"""Cleaning rules (hand-traced), vocabulary ranking, encoding, and the
pipeline invariants under randomized inputs."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cxrgen import text
from cxrgen.errors import ConfigError, ContractError, IntegrityError
from cxrgen.text import (CleanReport, Rejected, StandardizationMap,
                         Vocabulary, build_vocabulary, clean_report, decode_ids,
                         encode_tokens, load_reject_patterns, load_stopwords)

EMPTY_MAP = StandardizationMap([])
# ASCII letters, digits and punctuation, plus letters that lowercase to
# themselves ('𝐀' stays uppercase), to two characters ('İ') or not at all
# ('ß'), digits that are not ASCII ('²', '１') and punctuation that is not
# ASCII ('–', '“')
ALPHABET = (" abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789.,;:-!?"
            "𝐀ßİ²１–“")
# Source words and canonical words are disjoint, so every drawn map is a
# fixed point of itself.
SOURCE_WORDS = ("lung", "left", "clear", "heart", "𝐀", "ß", "i̇", "–", "the")
CANONICAL_WORDS = ("lungs", "normal", "opacity", "ßize", "“mark”")
WORD_POOL = SOURCE_WORDS + CANONICAL_WORDS + ("Lung", "LEFT", "İ", "x2", "a.b", "of")
STOP = frozenset({"the", "a", "of"})


def phrases(words, max_size):
    return st.lists(st.sampled_from(words), min_size=1, max_size=max_size).map(" ".join)


rule_lists = st.lists(st.tuples(phrases(SOURCE_WORDS, 3), phrases(CANONICAL_WORDS, 2)),
                      max_size=6)
raw_texts = st.lists(st.one_of(st.sampled_from(WORD_POOL), st.text(ALPHABET, max_size=6)),
                     min_size=3, max_size=30).map(" ".join)


def clean(text_value, stopwords=frozenset(), std_map=EMPTY_MAP, patterns=(), rid="r1"):
    return clean_report(rid, text_value, stopwords, std_map, patterns, text.DEFAULT_MIN_RAW_WORDS)


class TestCleanReport:
    def test_hand_traced_rule_order(self):
        """Lowercase, strip punctuation, drop digit tokens and stop words."""
        out = clean(
            "Heart size is normal. No pleural effusion, pneumothorax or focal consolidation.",
            stopwords=frozenset({"is", "no", "or"}),
        )
        assert out.tokens == (
            "<start>", "heart", "size", "normal", "pleural", "effusion",
            "pneumothorax", "focal", "consolidation", "<end>",
        )

    def test_too_short_raw_report_rejected(self):
        out = clean("Normal chest.")
        assert isinstance(out, Rejected)
        assert out.reason == text.REASON_TOO_SHORT

    def test_prior_study_reference_rejected(self):
        out = clean(
            "Compared to the prior study there is no significant interval change today.",
            patterns=load_reject_patterns(),
        )
        assert isinstance(out, Rejected)
        assert out.reason == text.REASON_PRIOR_REFERENCE

    def test_fixed_point_of_cleaning(self):
        source = "lungs remain clear without focal consolidation effusion edema pneumothorax"
        out = clean(source)
        assert out.interior == tuple(source.split())

    def test_digit_tokens_removed(self):
        out = clean("lines tubes at t4 level removed and lungs remain grossly clear today x2")
        assert "t4" not in out.interior and "x2" not in out.interior
        assert "lines" in out.interior

    def test_standardization_longest_match_first(self):
        std = StandardizationMap([
            ("cardiac silhouette", "heart"),
            ("cardiac silhouette contour", "heart outline"),
        ])
        out = clean(
            "cardiac silhouette contour appears stable and lungs remain very clear today",
            std_map=std,
        )
        assert out.interior[:2] == ("heart", "outline")

    def test_standardization_cycle_rejected(self):
        with pytest.raises(ConfigError):
            StandardizationMap([("a", "b"), ("b", "a")])

    @pytest.mark.parametrize("canonical", ["Lungs", "lung2", "left-lung", "lung 𝐀", "x²"])
    def test_canonical_phrase_must_be_lowercase_words(self, canonical):
        """Checked when the map is built, not when a report first uses it."""
        with pytest.raises(ConfigError, match="which is not a lowercase word"):
            StandardizationMap([("lungs", canonical)])

    def test_empty_source_rejected_beside_other_rules(self):
        """The empty source once matched at every position of the fixed-point
        check without advancing, so building this map never returned."""
        with pytest.raises(ConfigError, match="empty sides"):
            StandardizationMap([("left lung", "lung"), ("", "lung")])

    @given(rule_lists, st.lists(st.sampled_from(WORD_POOL), max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_apply_matches_all_rules_reference(self, pairs, tokens):
        """Rules indexed by first token rewrite as trying every rule at
        every position does."""
        expected = oracles.all_rules_apply(oracles.sorted_rules(pairs), tokens)
        assert StandardizationMap(pairs).apply(tokens) == expected

    def test_letter_that_stays_uppercase_is_rejected(self):
        out = clean("𝐀lungs remain clear without focal consolidation effusion edema today")
        assert out == Rejected("r1", text.REASON_MALFORMED, "malformed token '𝐀lungs'")

    def test_empty_after_cleaning_rejected(self):
        stop = frozenset("alpha beta gamma delta epsilon zeta eta theta iota".split())
        out = clean("alpha beta gamma delta epsilon zeta eta theta iota", stopwords=stop)
        assert isinstance(out, Rejected)
        assert out.reason == text.REASON_EMPTY

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_resource_line_numbers_count_newlines_only(self, tmp_path, ending):
        """U+2028 stays inside its line, so the bad pattern is line 2."""
        path = tmp_path / "patterns.txt"
        path.write_bytes(ending.join(["prior\u2028study", "(", ""]).encode())
        with pytest.raises(ConfigError, match=r"patterns.txt:2: invalid regular expression"):
            load_reject_patterns(path)

    def test_default_resources_load(self):
        stop = load_stopwords()
        assert {"is", "no", "or", "the"} <= stop
        std = StandardizationMap.from_file()
        assert std.apply(["cardiac", "silhouette"]) == ["heart"]
        assert len(load_reject_patterns()) > 0

    @given(st.text(alphabet=ALPHABET, max_size=200))
    @settings(max_examples=120, deadline=None)
    def test_accepted_reports_satisfy_invariants(self, raw):
        """Cleaning does not call ``validate``; this is what licenses it."""
        out = clean(raw, stopwords=STOP)
        if isinstance(out, Rejected):
            assert out.reason in (text.REASON_TOO_SHORT, text.REASON_EMPTY,
                                  text.REASON_MALFORMED)
        else:
            out.validate()
            assert out.tokens[0] == text.START_TOKEN and out.tokens[-1] == text.END_TOKEN

    @given(raw_texts, rule_lists)
    @settings(max_examples=300, deadline=None)
    def test_matches_validating_reference(self, raw, pairs):
        """Equal outcomes to cleaning with every rule tried and every token
        re-checked; where the reference finds a malformed token, cleaning
        rejects the report naming the same token."""
        patterns = load_reject_patterns()
        try:
            expected = oracles.validating_clean_report(
                "r", raw, STOP, oracles.sorted_rules(pairs), patterns,
                min_raw_words=3)
        except ContractError as exc:
            expected = Rejected("r", text.REASON_MALFORMED, str(exc).split(": ", 1)[1])
        out = clean_report("r", raw, STOP, StandardizationMap(pairs), patterns,
                           min_raw_words=3)
        assert out == expected

    @given(st.text())
    @settings(max_examples=300, deadline=None)
    def test_bad_token_matches_character_loop(self, token):
        assert text._bad_token(token) == oracles.generator_bad_token(token)

    def test_no_character_is_both_letter_and_digit(self):
        """Cleaning keeps an all-letter token without testing it for digits."""
        both = [hex(i) for i in range(sys.maxunicode + 1)
                if chr(i).isalpha() and chr(i).isdigit()]
        assert both == []

    @given(st.lists(st.text(alphabet="abcdefghij", min_size=1, max_size=8),
                    min_size=9, max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_idempotence_on_clean_text(self, words):
        """Re-cleaning a cleaned report's text reproduces the same tokens.

        Holds whenever the cleaned interior is itself long enough to pass
        the raw-length rule, which is the only rule that can re-fire.
        """
        first = clean(" ".join(words))
        assert isinstance(first, CleanReport)
        if len(first.interior) >= 9:
            second = clean(" ".join(first.interior))
            assert second.tokens == first.tokens

    def test_determinism(self):
        source = "lungs remain clear and heart size is normal without effusion or pneumothorax"
        a = clean(source, stopwords=load_stopwords(), std_map=StandardizationMap.from_file())
        b = clean(source, stopwords=load_stopwords(), std_map=StandardizationMap.from_file())
        assert a.tokens == b.tokens


class TestVocabulary:
    def _reports(self, token_lists):
        return [CleanReport(f"r{i}", (text.START_TOKEN, *toks, text.END_TOKEN))
                for i, toks in enumerate(token_lists)]

    def test_under_cap_keeps_everything(self):
        vocab = build_vocabulary(self._reports([["a", "b"], ["c"]]), cap=10)
        assert len(vocab) == 7

    def test_frequency_then_lexicographic(self):
        corpus = self._reports([["a"] * 5 + ["b"] * 5 + ["c"]])
        vocab = build_vocabulary(corpus, cap=6)
        assert vocab.tokens[4:] == ["a", "b"]
        assert "c" not in vocab.token_to_id

    def test_degenerate_cap(self):
        with pytest.raises(ConfigError):
            build_vocabulary(self._reports([["a"]]), cap=4)

    def test_empty_corpus(self):
        with pytest.raises(ContractError):
            build_vocabulary([], cap=10)

    def test_reserved_ids_fixed(self):
        vocab = build_vocabulary(self._reports([["x"]]), cap=10)
        assert vocab.token_to_id[text.PAD_TOKEN] == text.PAD_ID == 0
        assert vocab.token_to_id[text.START_TOKEN] == text.START_ID == 1
        assert vocab.token_to_id[text.END_TOKEN] == text.END_ID == 2
        assert vocab.token_to_id[text.UNK_TOKEN] == text.UNK_ID == 3

    def test_save_load_round_trip(self, tmp_path):
        vocab = build_vocabulary(self._reports([["alpha", "beta", "alpha"]]), cap=16)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = Vocabulary.load(path, None)
        assert loaded.tokens == vocab.tokens
        first_lines = path.read_text().splitlines()[:4]
        assert first_lines == list(text.RESERVED_TOKENS)

    @pytest.mark.parametrize("token", ["", " ", "a b", "ab\n", "\u2003ab", "ab\x1c"])
    def test_token_must_be_one_word(self, token):
        """``evaluate`` splits a report line with ``str.split``, so each
        real token is one word under it."""
        with pytest.raises(ConfigError, match="not one whitespace-free word"):
            Vocabulary([*text.RESERVED_TOKENS, "lung", token])

    def test_load_rejects_bad_header(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("nope\n<start>\n<end>\n<unk>\nword\n")
        with pytest.raises(IntegrityError):
            Vocabulary.load(path, None)


class TestEncode:
    @pytest.fixture
    def vocab(self):
        return Vocabulary(list(text.RESERVED_TOKENS) + ["clear", "lungs", "heart", "normal"])

    def _report(self, tokens):
        return CleanReport("r", (text.START_TOKEN, *tokens, text.END_TOKEN))

    def test_padding(self, vocab):
        ids = encode_tokens(self._report(["lungs", "clear", "normal"]), vocab, max_len=8)
        assert ids.tolist() == [1, 5, 4, 7, 2, 0, 0, 0]

    def test_oov_maps_to_unknown(self, vocab):
        ids = encode_tokens(self._report(["lungs", "zebra"]), vocab, max_len=6)
        assert ids.tolist() == [1, 5, 3, 2, 0, 0]

    def test_truncation_forces_end_marker(self, vocab):
        tokens = ["clear"] * 60
        ids = encode_tokens(self._report(tokens), vocab, max_len=50)
        assert len(ids) == 50
        assert ids[0] == text.START_ID
        assert ids[49] == text.END_ID
        assert all(i == vocab.token_to_id["clear"] for i in ids[1:49])

    def test_max_len_precondition(self, vocab):
        with pytest.raises(ContractError):
            encode_tokens(self._report(["clear"]), vocab, max_len=2)

    def test_round_trip_up_to_oov_and_truncation(self, vocab):
        report = self._report(["heart", "normal", "zebra", "clear"])
        ids = encode_tokens(report, vocab, max_len=10)
        tokens = decode_ids(ids, vocab)
        assert tokens == ["heart", "normal", text.UNK_TOKEN, "clear"]

    @given(st.lists(st.sampled_from(["clear", "lungs", "heart", "normal", "zebra"]),
                    min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, tokens):
        vocab = Vocabulary(list(text.RESERVED_TOKENS) + ["clear", "lungs", "heart", "normal"])
        report = self._report(tokens)
        ids = encode_tokens(report, vocab, max_len=20)
        decoded = decode_ids(ids, vocab)
        expected = [t if t in vocab.token_to_id else text.UNK_TOKEN for t in tokens]
        assert decoded == expected
