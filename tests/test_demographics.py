"""Demographic encoding: boundary behavior, one-hot validity, category
selection, and the codec round trip."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxrgen.demographics import (DemographicCodec, DemographicRecord,
                                 encode_demographics, select_top_categories)
from cxrgen.errors import ConfigError, ContractError

CATS = ["c0", "c1", "c2", "c3", "c4"]


class TestEncode:
    def test_lower_boundary(self):
        vec = encode_demographics(DemographicRecord("female", 19, "c0"), CATS)
        np.testing.assert_array_equal(vec, [0, 0.0, 1, 0, 0, 0, 0])

    def test_upper_boundary(self):
        vec = encode_demographics(DemographicRecord("male", 91, "c4"), CATS)
        np.testing.assert_array_equal(vec, [1, 1.0, 0, 0, 0, 0, 1])

    def test_midpoint_min_max_formula(self):
        # (55 - 19) / (91 - 19) == 0.5
        vec = encode_demographics(DemographicRecord("male", 55, "c2"), CATS)
        assert vec[1] == pytest.approx(0.5)
        np.testing.assert_array_equal(vec[2:], [0, 0, 1, 0, 0])

    def test_clipping_below_and_above(self):
        low = encode_demographics(DemographicRecord("female", 5, "c0"), CATS)
        high = encode_demographics(DemographicRecord("female", 120, "c0"), CATS)
        assert low[1] == 0.0
        assert high[1] == 1.0

    def test_unknown_ethnicity_lenient_zero_slice(self):
        vec = encode_demographics(DemographicRecord("female", 40, "other"), CATS)
        np.testing.assert_array_equal(vec[2:], np.zeros(5))

    def test_invalid_gender_rejected(self):
        with pytest.raises(ContractError):
            DemographicRecord("unknown", 40, "c0")

    def test_bad_categories_rejected(self):
        with pytest.raises(ConfigError):
            encode_demographics(DemographicRecord("female", 40, "c0"), [])
        with pytest.raises(ConfigError):
            encode_demographics(DemographicRecord("female", 40, "c0"), ["c0", "c0"])

    @given(st.integers(-50, 200), st.integers(-50, 200))
    @settings(max_examples=80, deadline=None)
    def test_age_monotone_in_normalized_value(self, age_a, age_b):
        rec = lambda age: DemographicRecord("female", age, "c0")
        va = encode_demographics(rec(age_a), CATS)[1]
        vb = encode_demographics(rec(age_b), CATS)[1]
        if age_a <= age_b:
            assert va <= vb
        assert 0.0 <= va <= 1.0

    @given(st.sampled_from(["female", "male"]), st.integers(0, 120), st.sampled_from(CATS))
    @settings(max_examples=80, deadline=None)
    def test_one_hot_property(self, gender, age, ethnicity):
        vec = encode_demographics(DemographicRecord(gender, age, ethnicity), CATS)
        one_hot = vec[2:]
        assert one_hot.sum() == 1.0
        assert set(np.unique(one_hot)) <= {0.0, 1.0}
        assert vec[0] in (0.0, 1.0)


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
