"""Search-space validation, encoding, decoding, and sampling tests."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunekit.space import (
    Configuration,
    DuplicateNameError,
    InvalidBoundsError,
    InvalidCountError,
    LengthMismatchError,
    LogScaleNonPositiveError,
    SearchSpace,
    TooFewCategoriesError,
    ValueOutOfDomainError,
    categorical,
    continuous,
    decode,
    encode,
    integer,
    sample_random,
    validate_space,
    validate_value,
)

MIXED = SearchSpace([
    continuous("lr", 1e-5, 1e-1, scaling="log"),
    integer("depth", 1, 11),
    categorical("optimizer", ("adam", "sgd", "rmsprop")),
])


class TestValidation:
    def test_valid_space_round_trips(self):
        assert validate_space(MIXED) is MIXED

    def test_empty_space(self):
        with pytest.raises(InvalidBoundsError):
            validate_space(SearchSpace([]))

    def test_duplicate_names(self):
        with pytest.raises(DuplicateNameError):
            validate_space(SearchSpace([continuous("x", 0, 1), integer("x", 0, 3)]))

    def test_reversed_bounds(self):
        with pytest.raises(InvalidBoundsError):
            validate_space(SearchSpace([continuous("x", 2.0, 1.0)]))
        with pytest.raises(InvalidBoundsError):
            validate_space(SearchSpace([continuous("x", 1.0, 1.0)]))

    def test_non_finite_bounds(self):
        with pytest.raises(InvalidBoundsError):
            validate_space(SearchSpace([continuous("x", 0.0, math.inf)]))

    def test_log_requires_positive_lower(self):
        with pytest.raises(LogScaleNonPositiveError):
            validate_space(SearchSpace([continuous("x", 0.0, 1.0, scaling="log")]))
        with pytest.raises(LogScaleNonPositiveError):
            validate_space(SearchSpace([continuous("x", -1.0, 1.0, scaling="log")]))

    def test_log_integer_allowed(self):
        validate_space(SearchSpace([integer("n", 1, 1024, scaling="log")]))

    def test_too_few_categories(self):
        with pytest.raises(TooFewCategoriesError):
            validate_space(SearchSpace([categorical("c", ("only",))]))

    def test_non_string_categories(self):
        with pytest.raises(InvalidBoundsError):
            validate_space(SearchSpace([categorical("c", ("a", 1))]))

    def test_repeated_categories(self):
        with pytest.raises(DuplicateNameError):
            validate_space(SearchSpace([categorical("c", ("a", "b", "a"))]))

    def test_fractional_integer_bounds(self):
        from tunekit.space import Dimension
        frac = SearchSpace([Dimension("n", "integer", 0.5, 3.0)])
        with pytest.raises(InvalidBoundsError):
            validate_space(frac)

    def test_unknown_kind(self):
        from tunekit.space import Dimension
        with pytest.raises(InvalidBoundsError):
            validate_space(SearchSpace([Dimension("x", "weird", 0.0, 1.0)]))


class TestValidateValue:
    def test_numeric_membership(self):
        dim = continuous("x", 0.0, 1.0)
        assert validate_value(dim, 0.0) and validate_value(dim, 1.0)
        assert not validate_value(dim, -0.001)
        assert not validate_value(dim, 1.001)
        assert not validate_value(dim, float("nan"))
        assert not validate_value(dim, "0.5")
        assert not validate_value(dim, True)

    def test_integer_membership(self):
        dim = integer("n", 1, 5)
        assert validate_value(dim, 3) and validate_value(dim, 3.0)
        assert not validate_value(dim, 3.5)
        assert not validate_value(dim, 0)

    def test_categorical_membership(self):
        dim = categorical("c", ("a", "b"))
        assert validate_value(dim, "a")
        assert not validate_value(dim, "z")
        assert not validate_value(dim, 0)


class TestEncodeDecode:
    def test_log_midpoint(self):
        # 1e-3 sits exactly halfway between 1e-5 and 1e-1 on the log10 axis
        vec = encode({"lr": 1e-3, "depth": 6, "optimizer": "sgd"}, MIXED)
        np.testing.assert_allclose(vec, [0.5, 0.5, 0.0, 1.0, 0.0], atol=1e-15)

    def test_encoded_width(self):
        assert MIXED.encoded_width == 5
        assert len(encode({"lr": 1e-5, "depth": 1, "optimizer": "adam"}, MIXED)) == 5

    def test_decode_midpoint(self):
        config = decode(np.array([0.5, 0.5, 0.0, 1.0, 0.0]), MIXED)
        assert math.isclose(config["lr"], 1e-3, rel_tol=1e-12)
        assert config["depth"] == 6
        assert config["optimizer"] == "sgd"

    def test_integer_rounding_half_up(self):
        space = SearchSpace([integer("n", 0, 10)])
        assert decode(np.array([0.25]), space)["n"] == 3  # 2.5 rounds up
        assert decode(np.array([0.24]), space)["n"] == 2
        assert decode(np.array([0.0]), space)["n"] == 0
        assert decode(np.array([1.0]), space)["n"] == 10

    def test_one_hot_tie_takes_lowest_index(self):
        space = SearchSpace([categorical("c", ("a", "b", "c"))])
        assert decode(np.array([0.4, 0.4, 0.4]), space)["c"] == "a"
        assert decode(np.array([0.1, 0.9, 0.9]), space)["c"] == "b"

    def test_decode_clips_out_of_range(self):
        space = SearchSpace([continuous("x", -2.0, 2.0)])
        assert decode(np.array([-0.5]), space)["x"] == -2.0
        assert decode(np.array([1.5]), space)["x"] == 2.0

    def test_decode_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            decode(np.array([0.1, 0.2]), MIXED)
        with pytest.raises(LengthMismatchError):
            decode(np.zeros((2, 5)), MIXED)

    def test_encode_missing_and_out_of_domain(self):
        with pytest.raises(ValueOutOfDomainError):
            encode({"lr": 1e-3, "depth": 6}, MIXED)
        with pytest.raises(ValueOutOfDomainError):
            encode({"lr": 1.0, "depth": 6, "optimizer": "sgd"}, MIXED)
        with pytest.raises(ValueOutOfDomainError):
            encode({"lr": 1e-3, "depth": 6.5, "optimizer": "sgd"}, MIXED)
        with pytest.raises(ValueOutOfDomainError):
            encode({"lr": 1e-3, "depth": 6, "optimizer": "momentum"}, MIXED)

    def test_round_trip_exact_on_grid(self):
        config = Configuration({"lr": 1e-2, "depth": 11, "optimizer": "rmsprop"})
        back = decode(encode(config, MIXED), MIXED)
        assert back["depth"] == 11 and back["optimizer"] == "rmsprop"
        assert math.isclose(back["lr"], 1e-2, rel_tol=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=5, max_size=5))
    def test_decode_encode_is_idempotent(self, coords):
        # decode then encode then decode again must land on the same config
        first = decode(np.array(coords), MIXED)
        second = decode(encode(first, MIXED), MIXED)
        assert first == second

    @settings(max_examples=60, deadline=None)
    @given(
        lr=st.floats(min_value=1e-5, max_value=1e-1),
        depth=st.integers(min_value=1, max_value=11),
        opt=st.sampled_from(["adam", "sgd", "rmsprop"]),
    )
    def test_encode_decode_recovers_values(self, lr, depth, opt):
        config = {"lr": lr, "depth": depth, "optimizer": opt}
        back = decode(encode(config, MIXED), MIXED)
        assert math.isclose(back["lr"], lr, rel_tol=1e-9)
        assert back["depth"] == depth
        assert back["optimizer"] == opt


class TestSampling:
    def test_count_validation(self):
        with pytest.raises(InvalidCountError):
            sample_random(MIXED, 0, 0)

    def test_determinism(self):
        a = sample_random(MIXED, 42, 5)
        b = sample_random(MIXED, 42, 5)
        assert a == b
        assert a != sample_random(MIXED, 43, 5)

    def test_all_values_in_domain(self):
        for config in sample_random(MIXED, 3, 200):
            for dim in MIXED:
                assert validate_value(dim, config[dim.name])

    def test_log_sampling_is_log_uniform(self):
        # under log scaling, half the mass of [1e-5, 1e-1] lies below 1e-3
        space = SearchSpace([continuous("lr", 1e-5, 1e-1, scaling="log")])
        draws = [c["lr"] for c in sample_random(space, 11, 4000)]
        below = sum(v < 1e-3 for v in draws) / len(draws)
        assert abs(below - 0.5) < 0.03

    def test_linear_sampling_is_linear_uniform(self):
        # linearly, 1e-3 cuts off only ~1% of [1e-5, 1e-1]
        space = SearchSpace([continuous("lr", 1e-5, 1e-1, scaling="linear")])
        draws = [c["lr"] for c in sample_random(space, 11, 4000)]
        below = sum(v < 1e-3 for v in draws) / len(draws)
        assert below < 0.03

    def test_categorical_sampling_roughly_uniform(self):
        counts = {"adam": 0, "sgd": 0, "rmsprop": 0}
        for config in sample_random(MIXED, 5, 3000):
            counts[config["optimizer"]] += 1
        for n in counts.values():
            assert abs(n / 3000 - 1 / 3) < 0.04

    def test_integer_endpoints_reachable(self):
        space = SearchSpace([integer("n", 0, 2)])
        seen = {c["n"] for c in sample_random(space, 1, 500)}
        assert seen == {0, 1, 2}


def test_configuration_mapping_behavior():
    config = Configuration({"a": 1, "b": "x"})
    assert dict(config) == {"a": 1, "b": "x"}
    assert config == Configuration({"a": 1, "b": "x"})
    assert config != Configuration({"a": 2, "b": "x"})
    assert "a=1" in repr(config)
