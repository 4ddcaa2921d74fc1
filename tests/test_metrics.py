"""BLEU against a count-and-clip oracle and the per-pair Counter version,
greedy-match embedding scores against a hand-looped oracle and the per-pair
matrix version, and the t-test's p against the closed-form sums of the t
distribution for integer degrees of freedom."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxrgen.errors import ConfigError, ContractError, DegenerateInputError, IntegrityError
from cxrgen.metrics import (F1_GROUP, Corpus, EmbeddingTable, EvaluationReport, bleu,
                            embedding_f1, evaluate_corpus, paired_t_test, t_two_sided_p)

from oracles import (count_and_clip_bleu, counter_bleu, greedy_match_scores, lookup,
                     paired_t_statistic, per_pair_embedding_f1, t_distribution_two_sided_p)


def corpus(hyps, refs):
    return Corpus.from_lists(hyps, refs)


def random_corpus(rng, n_pairs=6, vocab=("a", "b", "c", "d", "e"), max_len=10):
    hyps, refs = [], []
    for _ in range(n_pairs):
        hyps.append([vocab[i] for i in rng.integers(0, len(vocab),
                                                    size=rng.integers(1, max_len + 1))])
        refs.append([vocab[i] for i in rng.integers(0, len(vocab),
                                                    size=rng.integers(1, max_len + 1))])
    return corpus(hyps, refs)


class TestBleu:
    def test_identity_corpus_is_exactly_one(self):
        c = corpus([["the", "cat", "sat", "down"], ["on", "the", "mat", "it", "sat"]],
                   [["the", "cat", "sat", "down"], ["on", "the", "mat", "it", "sat"]])
        assert bleu(c) == [1.0, 1.0, 1.0, 1.0]

    def test_sequences_shorter_than_n_floor_that_order(self):
        # no 4-grams exist, so BLEU-4 falls to the epsilon-smoothed floor
        c = corpus([["a", "b"]], [["a", "b"]])
        scores = bleu(c)
        assert scores[:2] == [1.0, 1.0]
        assert scores[3] < 1e-2

    def test_disjoint_corpus_floors_at_epsilon(self):
        c = corpus([["a", "b", "c"]], [["x", "y", "z"]])
        scores = bleu(c)
        assert scores[0] <= 1e-6

    def test_brevity_penalty_hand_case(self):
        # hyp "the cat sat" vs ref "the cat sat down": p1 = 1, BP = exp(1 - 4/3)
        c = corpus([["the", "cat", "sat"]], [["the", "cat", "sat", "down"]])
        scores = bleu(c)
        assert scores[0] == pytest.approx(math.exp(1.0 - 4.0 / 3.0), abs=1e-12)

    def test_clipping_hand_case(self):
        # hyp repeats "the" 4x, ref has it twice: clipped p1 = 2/4, c=r so BP=1
        c = corpus([["the", "the", "the", "the"]], [["the", "cat", "the", "sat"]])
        assert bleu(c)[0] == pytest.approx(0.5, abs=1e-12)

    def test_matches_count_and_clip_oracle_on_random_corpora(self):
        rng = np.random.default_rng(1234)
        for _ in range(200):
            c = random_corpus(rng)
            ours = bleu(c)
            expected = count_and_clip_bleu(c.hypotheses, c.references)
            for a, b in zip(ours, expected):
                assert abs(a - b) < 1e-9

    def test_invariant_under_pair_reordering(self):
        rng = np.random.default_rng(5)
        c = random_corpus(rng, n_pairs=8)
        order = rng.permutation(len(c))
        shuffled = corpus([c.hypotheses[i] for i in order],
                          [c.references[i] for i in order])
        np.testing.assert_allclose(bleu(c), bleu(shuffled), rtol=0, atol=0)

    def test_scores_stay_in_unit_interval(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            c = random_corpus(rng, n_pairs=4, vocab=("a", "b"), max_len=8)
            for score in bleu(c):
                assert 0.0 <= score <= 1.0

    def test_monotonicity_in_n_admits_counterexamples(self):
        """BLEU-n is usually non-increasing in n, but not always: with a tiny
        vocabulary, bigram precision can exceed unigram precision. Pin one
        such corpus so the behavior (shared with the oracle) stays fixed."""
        hyps = [["a", "b", "b", "a", "a", "b", "a"], ["a", "b", "a", "a"],
                ["a"], ["a", "a", "b", "a", "b", "b", "a", "b"]]
        refs = [["b", "a", "b", "b", "b", "a", "b"], ["b", "a", "b", "a"],
                ["b", "b"], ["a", "b", "a"]]
        scores = bleu(corpus(hyps, refs))
        expected = count_and_clip_bleu(hyps, refs)
        np.testing.assert_allclose(scores, expected, atol=1e-9)
        assert scores[1] > scores[0]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ContractError):
            Corpus.from_lists([], [])

    def test_empty_sequence_rejected(self):
        """An empty reference; an empty hypothesis is scored (see TestEmptyHypotheses)."""
        with pytest.raises(ContractError, match="empty reference"):
            Corpus.from_lists([["a"]], [[]])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ContractError):
            Corpus.from_lists([["a"]], [["a"], ["b"]])


@st.composite
def small_vocabulary_corpora(draw):
    """1-6 pairs of 1-9 tokens over four words, so n-grams repeat and clip,
    and one-token sequences and hypotheses shorter than n are common."""
    words = st.lists(st.sampled_from("abcd"), min_size=1, max_size=9)
    pairs = draw(st.lists(st.tuples(words, words), min_size=1, max_size=6))
    return corpus([h for h, _ in pairs], [r for _, r in pairs])


@st.composite
def large_vocabulary_corpora(draw):
    """1-6 pairs of 0-40 words drawn from 5,000, so a hypothesis's n-grams
    are mostly distinct and clip by set intersection; a reference is drawn
    in part from its hypothesis so that the two share n-grams."""
    words = st.lists(st.integers(0, 4999).map("w{}".format), max_size=40)
    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        hyp = draw(words)
        ref = draw(st.lists(st.sampled_from(hyp), max_size=20)) if hyp else []
        pairs.append((hyp, (ref + draw(words)) or ["w0"]))
    return corpus([h for h, _ in pairs], [r for _, r in pairs])


@st.composite
def mixed_corpora(draw):
    """Pairs from the four-word and the 5,000-word strategies side by side,
    so both clipping paths add to one corpus's counts."""
    parts = [draw(small_vocabulary_corpora()), draw(large_vocabulary_corpora())]
    if draw(st.booleans()):
        parts.reverse()
    return corpus([h for c in parts for h in c.hypotheses],
                  [r for c in parts for r in c.references])


class TestBleuAgainstCounterOracle:
    @given(small_vocabulary_corpora(), st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_per_pair_counter_version(self, c, max_n):
        assert bleu(c, max_n) == counter_bleu(c, max_n)

    @given(large_vocabulary_corpora())
    @settings(max_examples=200, deadline=None)
    def test_distinct_hypothesis_ngrams_equal_the_counter_version(self, c):
        for max_n in (1, 2, 3, 4):
            assert bleu(c, max_n) == counter_bleu(c, max_n)

    @given(mixed_corpora())
    @settings(max_examples=200, deadline=None)
    def test_mixed_corpora_equal_the_counter_version(self, c):
        for max_n in (1, 2, 3, 4):
            assert bleu(c, max_n) == counter_bleu(c, max_n)

    def test_one_token_sequences_and_hypotheses_shorter_than_n(self):
        c = corpus([["a"], ["a", "b"], ["b", "a", "b"], ["a", "a", "a", "a", "a"]],
                   [["a", "b", "a", "b"], ["a"], ["b", "a"], ["a", "a", "b"]])
        for max_n in (1, 2, 3, 4):
            assert bleu(c, max_n) == counter_bleu(c, max_n)

    def test_distinct_hypothesis_ngram_that_the_reference_repeats_clips_at_one(self):
        # "a" and "a b" occur once in the hypothesis and twice in the reference
        c = corpus([["a", "b", "c"]], [["a", "b", "a", "b", "x", "y"]])
        assert bleu(c, 2) == counter_bleu(c, 2)
        assert bleu(c, 2)[0] == pytest.approx(2 / 3 * math.exp(1 - 6 / 3), abs=1e-15)

    def test_repeated_hypothesis_ngram_that_the_reference_holds_once(self):
        # "a" and "a b" occur twice in the hypothesis and once in the reference
        c = corpus([["a", "b", "a", "b"]], [["a", "b", "c", "d"]])
        for max_n in (1, 2, 3, 4):
            assert bleu(c, max_n) == counter_bleu(c, max_n)
        assert bleu(c, 2)[:2] == pytest.approx([0.5, math.sqrt(0.5 * 1 / 3)], abs=1e-15)

    def test_empty_hypothesis_beside_distinct_and_repeated_ones(self):
        c = corpus([[], ["a", "b"], ["c", "c"]], [["a", "b"], ["a", "b", "x"], ["c"]])
        for max_n in (1, 2, 3, 4):
            assert bleu(c, max_n) == counter_bleu(c, max_n)

    def test_hypothesis_shorter_than_n_adds_no_ngrams_of_that_order(self):
        short = corpus([["a", "b"]], [["a", "b", "c"]])
        for max_n in (3, 4):
            assert bleu(short, max_n) == counter_bleu(short, max_n)
        # no trigrams: the third precision is the epsilon floor
        assert bleu(short, 3)[2] == pytest.approx(math.exp(1 - 3 / 2) * 1e-9 ** (1 / 3),
                                                  rel=1e-12)


KNOWN = ("a", "b", "c", "d", "e")
UNKNOWN = ("zebra", "yak")


def table_of_kind(kind, policy, rng):
    """A table over KNOWN: random 3-vectors, random ones with a zero vector
    for "e", or the vertices of a regular simplex, whose distinct tokens all
    have cosine -1/4, so that an unknown token's 0 beats every one of them."""
    if kind == "simplex":
        vectors = np.eye(len(KNOWN)) - 1.0 / len(KNOWN)
    else:
        vectors = rng.normal(size=(len(KNOWN), 3))
        if kind == "zero-row":
            vectors[-1] = 0.0
    return EmbeddingTable(dict(zip(KNOWN, vectors)), unknown_policy=policy)


@st.composite
def f1_cases(draw):
    """A table and a corpus of 1, 2, G - 1, G, G + 1 or 2G + 1 pairs (G is
    F1_GROUP), whose hypothesis and reference lengths are drawn from
    independent ranges, up to 1 against 40. In some corpora about half the
    hypotheses are empty."""
    policy = draw(st.sampled_from(["error", "zero"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    table = table_of_kind(draw(st.sampled_from(["random", "zero-row", "simplex"])),
                          policy, rng)
    words = KNOWN + UNKNOWN if policy == "zero" else KNOWN
    n_pairs = draw(st.sampled_from([1, 2, F1_GROUP - 1, F1_GROUP, F1_GROUP + 1,
                                    2 * F1_GROUP + 1]))
    longest = [draw(st.integers(1, 40)), draw(st.integers(1, 40))]
    sides = [[[words[i] for i in rng.integers(0, len(words), size=rng.integers(1, top + 1))]
              for _ in range(n_pairs)] for top in longest]
    blank = draw(st.sampled_from([0.0, 0.5]))
    sides[0] = [[] if rng.random() < blank else hyp for hyp in sides[0]]
    return corpus(*sides), table


class TestEmbeddingF1AgainstPerPairOracle:
    @given(f1_cases())
    @settings(max_examples=60, deadline=None)
    def test_within_1e_12_of_the_per_pair_version(self, case):
        """P and R to 1e-12 always. F1 = 2PR/(P+R) amplifies rounding by up to
        2·max(P,R)²/(P+R)², which is unbounded as P+R nears 0 (possible once
        similarities are negative), so F1 is held to 1e-12 when P and R are
        both positive, where that factor is at most 2."""
        c, table = case
        p, r, f1 = embedding_f1(c, table)
        expected_p, expected_r, expected_f1 = per_pair_embedding_f1(c, table)
        assert abs(p - expected_p) <= 1e-12
        assert abs(r - expected_r) <= 1e-12
        if expected_p > 0 and expected_r > 0:
            assert abs(f1 - expected_f1) <= 1e-12

    def test_an_unknown_token_can_be_the_best_match(self):
        """Under the zero policy an unknown token is a real column of
        similarity 0, not a pad: it beats every negative similarity."""
        table = EmbeddingTable({"a": np.asarray([1.0, 0.0]), "b": np.asarray([-1.0, 0.0])},
                               unknown_policy="zero")
        c = corpus([["a"], ["a", "b"]], [["b", "zebra"], ["b"]])
        p, r, _ = embedding_f1(c, table)
        # pair 0: P = max(-1, 0) = 0, R = (-1 + 0) / 2; pair 1: P = (-1 + 1) / 2, R = 1
        assert (p, r) == (0.0, 0.25)
        assert (p, r) == per_pair_embedding_f1(c, table)[:2]

    def test_memory_is_bounded_by_one_group(self, monkeypatch):
        """Tokens are looked up one group at a time, never for the whole corpus."""
        table = EmbeddingTable({t: np.eye(len(KNOWN))[i] for i, t in enumerate(KNOWN)})
        c = corpus([["a", "b", "c"]] * (2 * F1_GROUP + 5), [["c", "d", "e"]] * (2 * F1_GROUP + 5))
        looked_up = []
        row_numbers = table.row_numbers

        def counting_row_numbers(tokens):
            looked_up.append(len(tokens))
            return row_numbers(tokens)

        monkeypatch.setattr(table, "row_numbers", counting_row_numbers)
        assert embedding_f1(c, table) == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-15)
        assert looked_up == [3 * F1_GROUP] * 4 + [3 * 5] * 2


class TestEmptyHypotheses:
    """A model can emit the end marker first. Its empty hypothesis adds no
    n-grams and no length to corpus BLEU, and it scores 0 in embedding P and R."""

    @staticmethod
    def unit_table():
        return EmbeddingTable({t: np.eye(4)[i] for i, t in enumerate("abcd")})

    def test_bleu_of_mixed_corpora_equals_the_oracles(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            c = random_corpus(rng, n_pairs=int(rng.integers(2, 9)), max_len=6)
            hyps = [h if rng.random() < 0.5 else () for h in c.hypotheses]
            hyps[0] = ()
            mixed = corpus(hyps, c.references)
            for max_n in (1, 2, 3, 4):
                np.testing.assert_allclose(bleu(mixed, max_n),
                                           count_and_clip_bleu(hyps, c.references, max_n),
                                           rtol=0, atol=1e-9)
                assert bleu(mixed, max_n) == counter_bleu(mixed, max_n)

    def test_empty_hypothesis_adds_no_length_and_no_ngrams(self):
        full = corpus([["a", "b"]], [["a", "b", "c"]])
        padded = corpus([["a", "b"], []], [["a", "b", "c"], ["d"]])
        # c = 2 against r = 3, then r = 4: only the brevity penalty moves
        assert bleu(full, 2) == pytest.approx([math.exp(1 - 3 / 2), math.exp(1 - 3 / 2)])
        assert bleu(padded, 2) == pytest.approx([math.exp(1 - 4 / 2), math.exp(1 - 4 / 2)])

    def test_all_empty_corpus_scores_zero(self):
        c = corpus([[], []], [["a"], ["b", "c"]])
        assert bleu(c) == [0.0] * 4
        assert count_and_clip_bleu(c.hypotheses, c.references) == [0.0] * 4
        assert embedding_f1(c, self.unit_table()) == (0.0, 0.0, 0.0)

    def test_embedding_scores_of_empty_pairs_are_zero(self):
        """Pair 0 scores P = R = 1; every other hypothesis is empty, so the
        second group holds no hypothesis token at all."""
        table = self.unit_table()
        n_pairs = 2 * F1_GROUP
        c = corpus([["a", "b"]] + [[]] * (n_pairs - 1),
                   [["a", "b"]] + [["c", "d"]] * (n_pairs - 1))
        p, r, f1 = embedding_f1(c, table)
        assert (p, r, f1) == (1 / n_pairs, 1 / n_pairs, 1 / n_pairs)
        assert per_pair_embedding_f1(c, table) == pytest.approx((p, r, f1), abs=1e-15)


class TestEmbeddingF1:
    def unit_table(self, dim=4):
        vectors = {t: np.eye(dim)[i] for i, t in enumerate(["a", "b", "c", "d"])}
        return EmbeddingTable(vectors)

    def test_identity_is_exactly_one(self):
        table = self.unit_table()
        c = corpus([["a", "b", "c"]], [["a", "b", "c"]])
        p, r, f1 = embedding_f1(c, table)
        assert (p, r, f1) == (1.0, 1.0, 1.0)

    def test_orthogonal_disjoint_is_zero(self):
        table = self.unit_table()
        c = corpus([["a", "b"]], [["c", "d"]])
        p, r, f1 = embedding_f1(c, table)
        assert (p, r, f1) == (0.0, 0.0, 0.0)

    def test_f1_is_zero_unless_precision_and_recall_are_positive(self):
        """A negative recall from static embeddings must not push F1 out of
        [0, 1]: 2PR/(P+R) read -1.97 here."""
        table = EmbeddingTable({"a": np.asarray([1.0, 0.0]), "b": np.asarray([-1.0, 0.1])})
        p, r, f1 = embedding_f1(corpus([["a"]], [["a", "b", "b", "b"]]), table)
        assert p == 1.0 and r < 0
        assert f1 == 0.0

    def test_two_token_toy_case_against_oracle(self):
        vectors = {
            "warm": [1.0, 0.0],
            "hot": [0.8, 0.6],
            "cold": [0.0, 1.0],
        }
        table = EmbeddingTable({k: np.asarray(v) for k, v in vectors.items()})
        hyp, ref = ["warm", "cold"], ["hot"]
        expected_p, expected_r = greedy_match_scores(hyp, ref, vectors)
        c = corpus([hyp], [ref])
        p, r, f1 = embedding_f1(c, table)
        assert p == pytest.approx(expected_p, abs=1e-12)
        assert r == pytest.approx(expected_r, abs=1e-12)
        assert f1 == pytest.approx(2 * p * r / (p + r), abs=1e-12)

    def test_random_corpora_against_oracle(self):
        rng = np.random.default_rng(42)
        tokens = ["a", "b", "c", "d", "e"]
        vectors = {t: rng.normal(size=3) for t in tokens}
        table = EmbeddingTable({t: v.copy() for t, v in vectors.items()})
        for _ in range(20):
            c = random_corpus(rng, n_pairs=3, vocab=tuple(tokens), max_len=6)
            p_terms, r_terms = [], []
            for hyp, ref in zip(c.hypotheses, c.references):
                vec_map = {t: list(vectors[t]) for t in tokens}
                pp, rr = greedy_match_scores(list(hyp), list(ref), vec_map)
                p_terms.append(pp)
                r_terms.append(rr)
            p, r, _ = embedding_f1(c, table)
            assert p == pytest.approx(np.mean(p_terms), abs=1e-9)
            assert r == pytest.approx(np.mean(r_terms), abs=1e-9)

    def test_symmetry_under_corpus_swap(self):
        table = self.unit_table()
        c = corpus([["a", "b"], ["c"]], [["b", "d"], ["c", "a"]])
        swapped = corpus([["b", "d"], ["c", "a"]], [["a", "b"], ["c"]])
        p1, r1, f1a = embedding_f1(c, table)
        p2, r2, f1b = embedding_f1(swapped, table)
        assert p1 == pytest.approx(r2) and r1 == pytest.approx(p2)
        assert f1a == pytest.approx(f1b)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            EmbeddingTable({"a": np.ones(2), "b": np.ones(3)})

    def test_unknown_token_policies(self):
        table = self.unit_table()
        c = corpus([["zebra"]], [["a"]])
        with pytest.raises(ContractError):
            embedding_f1(c, table)
        lenient = EmbeddingTable({t: lookup(table, t) for t in table.rows},
                                 unknown_policy="zero")
        p, r, f1 = embedding_f1(c, lenient)
        assert p == 0.0

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1.0 0.0\nb 0.0 1.0\n")
        table = EmbeddingTable.from_file(path)
        assert table.matrix.shape == (2, 2)
        np.testing.assert_array_equal(lookup(table, "a"), [1.0, 0.0])

    def test_vectors_are_views_of_one_read_only_matrix(self):
        table = self.unit_table()
        assert table.matrix.shape == (4, 4) and not table.matrix.flags.writeable
        vectors = {token: lookup(table, token) for token in table.rows}
        for vector in vectors.values():
            assert np.shares_memory(vector, table.matrix)
        again = EmbeddingTable(vectors)
        np.testing.assert_array_equal(again.matrix, table.matrix)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200],
                             ids=["nan", "inf", "-inf", "norm-overflows"])
    def test_non_finite_vector_rejected(self, bad):
        with pytest.raises(ConfigError, match="'b'"):
            EmbeddingTable({"a": [1.0, 0.0], "b": [bad, 1.0]})

    @pytest.mark.parametrize("lines, lineno", [
        ("a 1.0 x\n", 1), ("a 1 0\nb nan 1\n", 2), ("a 1 0\nb 1 inf\n", 2),
        ("a 1 0\n\nb 1e999 0\n", 3), ("a 1 0\nb 1 0 0\n", 2), ("a 1 0\nb\n", 2)],
        ids=["not-a-number", "nan", "inf", "overflows-to-inf", "mixed-dimensions",
             "no-components"])
    def test_bad_file_line_is_named(self, tmp_path, lines, lineno):
        path = tmp_path / "emb.txt"
        path.write_text(lines)
        with pytest.raises(ConfigError, match=f"emb.txt:{lineno}:"):
            EmbeddingTable.from_file(path)

    def test_repeated_token_names_both_lines(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1 0\nb 0 1\na 0 1\n")
        with pytest.raises(ConfigError, match="emb.txt:3: token 'a' repeats line 1"):
            EmbeddingTable.from_file(path)

    def test_file_that_is_not_utf8_is_integrity_error(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_bytes(b"\xff\xfea 1 0\n")
        with pytest.raises(IntegrityError, match="UTF-8"):
            EmbeddingTable.from_file(path)


# the oracle's 1 - A cancels where p is tiny, good there to about 1e-15
# absolute; elsewhere the two agree to a relative 1e-12 (measured: 9.3e-13 at
# worst, at df 179, against 7.8e-13 between the oracle and a 40-digit
# incomplete beta there)
P_REL = 2e-12
P_ABS = 1e-14


class TestPairedTTest:
    def test_identical_inputs_degenerate(self):
        with pytest.raises(DegenerateInputError):
            paired_t_test([0.3, 0.4, 0.5], [0.3, 0.4, 0.5])

    def test_jitter_below_tolerance_degenerate(self):
        a = [0.3, 0.4, 0.5, 0.6]
        b = [x + 1e-15 for x in a]
        with pytest.raises(DegenerateInputError):
            paired_t_test(a, b)

    def test_constant_shift_is_significant(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=6)
        shifted = base + 1.0 + rng.normal(scale=1e-6, size=6)
        result = paired_t_test(shifted, base)
        assert abs(result.t) > 1e4
        assert result.p < 1e-10
        assert result.significant

    def test_against_direct_formula_and_closed_form(self):
        a = [0.5, -0.3, 0.8, 0.1]
        b = [0.0, 0.0, 0.0, 0.0]
        result = paired_t_test(a, b)
        expected_t = paired_t_statistic(a, b)
        expected_p = t_distribution_two_sided_p(expected_t, df=3)
        assert result.t == pytest.approx(expected_t, rel=1e-12)
        assert result.p == pytest.approx(expected_p, rel=P_REL, abs=P_ABS)
        assert result.significant == (result.p < 0.05)

    def test_p_over_every_df_to_200_and_t_from_0_to_1e6(self):
        """For each df, n = df + 1 scores whose differences are a symmetric
        ramp (mean exactly 0) shifted to give a t near each grid value; the
        p of the t that comes out matches the oracle to P_REL + P_ABS."""
        grid = np.concatenate([[0.0], np.logspace(-6, 6, 49)])
        for df in range(1, 201):
            ramp = np.arange(df + 1) - df / 2.0
            scale = ramp.std(ddof=1) / math.sqrt(df + 1)
            for target in grid:
                result = paired_t_test(ramp + target * scale, np.zeros(df + 1))
                assert result.t == pytest.approx(target, rel=1e-9, abs=1e-12)
                expected = t_distribution_two_sided_p(result.t, df)
                assert abs(result.p - expected) <= P_REL * expected + P_ABS, (df, result.t)
        assert paired_t_test(np.arange(5.0) - 2.0, np.zeros(5)).p == 1.0

    @pytest.mark.parametrize("df, closed_form, tail", [
        (1, lambda t: 1.0 - 2.0 / math.pi * math.atan(t),
         lambda t: 2.0 / math.pi * math.atan(1.0 / t)),
        (2, lambda t: 1.0 - t / math.sqrt(2.0 + t * t),
         lambda t: 2.0 / (math.sqrt(2.0 + t * t) * (math.sqrt(2.0 + t * t) + t))),
    ], ids=["df=1", "df=2"])
    def test_exact_forms_of_one_and_two_df(self, df, closed_form, tail):
        """p = 1 - (2/pi) atan|t| at df = 1 and 1 - |t|/sqrt(2 + t^2) at
        df = 2, to P_REL + P_ABS; the same p written without the cancelling
        1 - ... holds to a relative 1e-13 down to p ~ 1e-12."""
        for t in [*np.logspace(-6, 6, 121), 1e-300, 1e150]:
            p = t_two_sided_p(t, df)
            assert abs(p - closed_form(t)) <= P_REL * closed_form(t) + P_ABS, t
            assert p == pytest.approx(tail(t), rel=1e-13), t
            assert t_two_sided_p(-t, df) == p

    def test_p_at_the_ends(self):
        """t = 0 gives 1 and a t whose square overflows gives 0, exactly."""
        for df in (1, 3, 200):
            assert t_two_sided_p(0.0, df) == t_two_sided_p(-0.0, df) == 1.0
            assert t_two_sided_p(1e200, df) == t_two_sided_p(-math.inf, df) == 0.0

    def test_antisymmetry(self):
        a = [0.9, 0.7, 0.8, 0.75]
        b = [0.6, 0.72, 0.71, 0.69]
        ab = paired_t_test(a, b)
        ba = paired_t_test(b, a)
        assert ab.t == pytest.approx(-ba.t, rel=1e-12)
        assert ab.p == pytest.approx(ba.p, rel=1e-12)

    def test_preconditions(self):
        with pytest.raises(ContractError):
            paired_t_test([1.0], [0.5])
        with pytest.raises(ContractError):
            paired_t_test([1.0, 2.0], [0.5])
        with pytest.raises(ConfigError):
            paired_t_test([1.0, 2.0], [0.5, 0.1], alpha=1.5)


class TestEvaluationReport:
    def test_round_trip_and_fixed_keys(self, tmp_path):
        c = corpus([["a", "b"]], [["a", "b"]])
        table = EmbeddingTable({"a": np.asarray([1.0, 0.0]), "b": np.asarray([0.0, 1.0])})
        report = evaluate_corpus(c, table)
        assert report.bleu_1 == 1.0 and report.f1_embed == 1.0
        path = tmp_path / "report.json"
        report.to_json(path)
        again = EvaluationReport.from_json(path)
        assert again == report
        assert "embedding" in report.note

    @pytest.mark.parametrize("name, value, valid", [
        ("bleu_2", -1e-12, True), ("bleu_2", 1.0 + 1e-12, True), ("bleu_2", -0.01, False),
        ("bleu_2", 1.01, False), ("f1_embed", -0.01, False), ("f1_embed", 1.01, False),
        ("p_embed", -1.0, True), ("p_embed", -1.01, False), ("r_embed", 1.01, False),
        ("bleu_1", 1e308, False), ("bleu_1", -1e308, False)])
    def test_scores_outside_their_range_are_rejected(self, tmp_path, name, value, valid):
        """BLEU and F1 lie in [0, 1] and P and R in [-1, 1], up to
        ``SCORE_TOLERANCE`` of rounding."""
        report = EvaluationReport(0.5, 0.4, 0.3, 0.2, 0.5, 0.5, 0.5, n_pairs=3)
        setattr(report, name, value)
        path = tmp_path / "report.json"
        report.to_json(path)
        if valid:
            assert EvaluationReport.from_json(path) == report
        else:
            with pytest.raises(IntegrityError, match=f"bad value for {name}"):
                EvaluationReport.from_json(path)

    def test_f1_is_harmonic_mean(self):
        table = EmbeddingTable({"a": np.asarray([1.0, 0.0]), "b": np.asarray([0.0, 1.0]),
                                "c": np.asarray([1.0, 1.0])})
        c = corpus([["a", "c"]], [["a", "b"]])
        report = evaluate_corpus(c, table)
        p, r = report.p_embed, report.r_embed
        assert report.f1_embed == pytest.approx(2 * p * r / (p + r), rel=1e-12)
