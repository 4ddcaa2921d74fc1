"""Demographic encoding: boundary behavior, one-hot validity, category
selection, and the codec round trip."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cxrgen.demographics import (ALL_FIELDS, DemographicCodec, DemographicRecord,
                                 select_top_categories)
from cxrgen.errors import ConfigError, ContractError

CATS = ["c0", "c1", "c2", "c3", "c4"]


def encode_all(rec, categories):
    """All three fields, as a ``train`` run with the default --demographics encodes."""
    return DemographicCodec(tuple(categories)).encode(rec)


class TestEncode:
    def test_lower_boundary(self):
        vec = encode_all(DemographicRecord("female", 19, "c0"), CATS)
        np.testing.assert_array_equal(vec, [0, 0.0, 1, 0, 0, 0, 0])

    def test_upper_boundary(self):
        vec = encode_all(DemographicRecord("male", 91, "c4"), CATS)
        np.testing.assert_array_equal(vec, [1, 1.0, 0, 0, 0, 0, 1])

    def test_midpoint_min_max_formula(self):
        # (55 - 19) / (91 - 19) == 0.5
        vec = encode_all(DemographicRecord("male", 55, "c2"), CATS)
        assert vec[1] == pytest.approx(0.5)
        np.testing.assert_array_equal(vec[2:], [0, 0, 1, 0, 0])

    def test_clipping_below_and_above(self):
        low = encode_all(DemographicRecord("female", 5, "c0"), CATS)
        high = encode_all(DemographicRecord("female", 120, "c0"), CATS)
        assert low[1] == 0.0
        assert high[1] == 1.0

    def test_unknown_ethnicity_lenient_zero_slice(self):
        vec = encode_all(DemographicRecord("female", 40, "other"), CATS)
        np.testing.assert_array_equal(vec[2:], np.zeros(5))

    def test_invalid_gender_rejected(self):
        with pytest.raises(ContractError):
            DemographicRecord("unknown", 40, "c0")

    def test_bad_categories_rejected(self):
        with pytest.raises(ConfigError):
            DemographicCodec(())
        with pytest.raises(ConfigError):
            DemographicCodec(("c0", "c0"))

    @given(st.integers(-50, 200), st.integers(-50, 200))
    @settings(max_examples=80, deadline=None)
    def test_age_monotone_in_normalized_value(self, age_a, age_b):
        rec = lambda age: DemographicRecord("female", age, "c0")
        va = encode_all(rec(age_a), CATS)[1]
        vb = encode_all(rec(age_b), CATS)[1]
        if age_a <= age_b:
            assert va <= vb
        assert 0.0 <= va <= 1.0

    @given(st.sampled_from(["female", "male"]), st.integers(0, 120), st.sampled_from(CATS))
    @settings(max_examples=80, deadline=None)
    def test_one_hot_property(self, gender, age, ethnicity):
        vec = encode_all(DemographicRecord(gender, age, ethnicity), CATS)
        one_hot = vec[2:]
        assert one_hot.sum() == 1.0
        assert set(np.unique(one_hot)) <= {0.0, 1.0}
        assert vec[0] in (0.0, 1.0)

    @given(st.sampled_from(["female", "male"]), st.integers(-50, 200),
           st.sampled_from(CATS + ["other"]), st.permutations(ALL_FIELDS),
           st.integers(0, 3), st.integers(0, 40), st.integers(1, 80))
    @settings(max_examples=120, deadline=None)
    def test_codec_matches_checked_reference(self, gender, age, ethnicity, order, n_fields,
                                             age_min, age_span):
        """The codec, which checks its layout once when built, encodes as
        the reference that checks it on every call, for every field subset."""
        codec = DemographicCodec(tuple(CATS), order[:n_fields], age_min, age_min + age_span)
        rec = DemographicRecord(gender, age, ethnicity)
        full = oracles.encode_demographics(rec, CATS, age_min, age_min + age_span)
        widths = {"gender": 1, "age": 1, "ethnicity": len(CATS)}
        starts = {"gender": 0, "age": 1, "ethnicity": 2}
        expected = [full[starts[f]:starts[f] + widths[f]] for f in ALL_FIELDS
                    if f in codec.fields]
        expected = np.concatenate(expected) if expected else np.zeros(0, np.float32)
        vec = codec.encode(rec)
        assert vec.dtype == np.float32 and vec.shape == (codec.dim,)
        assert vec.tolist() == expected.tolist()


class TestSelectTopCategories:
    def _records(self, spec):
        out = []
        for name, count in spec.items():
            out.extend(DemographicRecord("female", 30, name) for _ in range(count))
        return out

    def test_fewer_than_k_flags_under_k(self):
        cats, under = select_top_categories(self._records({"A": 10, "B": 3}), k=5)
        assert cats == ["A", "B"]
        assert under is True

    def test_tie_broken_lexicographically(self):
        cats, under = select_top_categories(self._records({"B": 5, "A": 5, "C": 1}), k=2)
        assert cats == ["A", "B"]
        assert under is False

    def test_singleton(self):
        cats, under = select_top_categories(self._records({"only": 4}), k=1)
        assert cats == ["only"]
        assert under is False

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            select_top_categories([], k=3)


class TestCodec:
    def test_dim_per_field_subset(self):
        full = DemographicCodec(tuple(CATS))
        assert full.dim == 7
        assert DemographicCodec(tuple(CATS), fields=("gender",)).dim == 1
        assert DemographicCodec(tuple(CATS), fields=("ethnicity",)).dim == 5
        assert DemographicCodec(tuple(CATS), fields=("gender", "ethnicity")).dim == 6

    def test_subset_layout_order_is_fixed(self):
        codec = DemographicCodec(tuple(CATS), fields=("ethnicity", "gender"))
        vec = codec.encode(DemographicRecord("male", 40, "c1"))
        assert vec[0] == 1.0
        np.testing.assert_array_equal(vec[1:], [0, 1, 0, 0, 0])

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            DemographicCodec(tuple(CATS), fields=("weight",))

    def test_dict_round_trip(self):
        codec = DemographicCodec(tuple(CATS), fields=("gender", "age"), age_min=20,
                                 age_max=80)
        again = DemographicCodec.from_dict(codec.to_dict())
        assert again == codec
        rec = DemographicRecord("male", 50, "c0")
        np.testing.assert_array_equal(codec.encode(rec), again.encode(rec))

    def test_demographics_manifest_gives_all_three_fields(self):
        codec = DemographicCodec.from_dict({"categories": CATS, "under_k": False,
                                            "age_min": 19, "age_max": 91})
        assert codec == DemographicCodec(tuple(CATS))

    @pytest.mark.parametrize("payload, message", [
        ("gender,age", "a demographic codec is a JSON object"),
        ({"categories": CATS, "age_min": 19}, "missing key 'age_max'"),
        ({"categories": "c0", "age_min": 19, "age_max": 91}, "categories must be"),
        ({"categories": [], "age_min": 19, "age_max": 91}, "categories must be"),
        ({"categories": [1], "age_min": 19, "age_max": 91}, "categories must be"),
        ({"categories": CATS, "age_min": "19", "age_max": 91}, "age_min and age_max"),
        ({"categories": CATS, "age_min": True, "age_max": 91}, "age_min and age_max"),
        ({"categories": CATS, "age_min": 91, "age_max": 19}, "age_min and age_max"),
        ({"categories": CATS, "fields": "age", "age_min": 19, "age_max": 91}, "fields must be"),
        ({"categories": CATS, "fields": ["age", "age"], "age_min": 19, "age_max": 91},
         "fields must be"),
    ], ids=["string", "missing-key", "string-categories", "no-categories",
            "number-categories", "string-age", "bool-age", "min-above-max", "string-fields",
            "repeated-field"])
    def test_bad_payload_is_a_config_error(self, payload, message):
        """The constructor checks the layout, so ``from_dict`` cannot build a
        codec that ``encode`` would reject or misread."""
        with pytest.raises(ConfigError, match=message):
            DemographicCodec.from_dict(payload)
