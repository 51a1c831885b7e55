"""Tests for repro.utils.rng."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.rng import (
    as_rng,
    choice_without_replacement,
    derive_request_seeds,
    fold_seed,
    sample_stream,
    seeded_noise_factors,
    seeds_for_runs,
    shuffled_indices,
    spawn_rngs,
    validate_seeds,
)

MASK = 2**64 - 1

#: Seeds of every width SeedSequence treats differently: zero (one word),
#: below 2**32 (one word), from 2**32 up (two words), and negative ints
#: (folded into [0, 2**64) by the mask).
seed_values = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, MASK),
    st.integers(-(2**63), -1),
)
path_parts = st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, MASK))
paths = st.lists(path_parts, min_size=1, max_size=4)


def list_entropy(seed, path):
    """The list entropy the stream contract is stated in."""
    return [seed & MASK, *(part & MASK for part in path)]


class TestAsRng:
    def test_accepts_none(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_accepts_int_seed_deterministically(self):
        a = as_rng(42).integers(0, 1000, size=5)
        b = as_rng(42).integers(0, 1000, size=5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = as_rng(1).integers(0, 10**6, size=8)
        b = as_rng(2).integers(0, 10**6, size=8)
        assert not np.array_equal(a, b)

    def test_passes_generator_through(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen

    def test_accepts_seed_sequence(self):
        seq = np.random.SeedSequence(7)
        assert isinstance(as_rng(seq), np.random.Generator)

    def test_rejects_invalid_type(self):
        with pytest.raises(TypeError):
            as_rng("not-a-seed")


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_zero_count(self):
        assert spawn_rngs(0, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_children_are_independent(self):
        children = spawn_rngs(0, 2)
        a = children[0].integers(0, 10**6, size=10)
        b = children[1].integers(0, 10**6, size=10)
        assert not np.array_equal(a, b)

    def test_deterministic_given_seed(self):
        a = [g.integers(0, 10**6) for g in spawn_rngs(3, 4)]
        b = [g.integers(0, 10**6) for g in spawn_rngs(3, 4)]
        assert a == b

    def test_spawning_from_generator(self):
        gen = np.random.default_rng(0)
        children = spawn_rngs(gen, 3)
        assert len(children) == 3


class TestSeedsForRuns:
    def test_count_and_type(self):
        seeds = seeds_for_runs(0, 10)
        assert len(seeds) == 10
        assert all(isinstance(s, int) for s in seeds)

    def test_deterministic(self):
        assert seeds_for_runs(5, 6) == seeds_for_runs(5, 6)

    def test_distinct(self):
        seeds = seeds_for_runs(0, 20)
        assert len(set(seeds)) == 20

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            seeds_for_runs(0, -2)


class TestShuffleAndChoice:
    def test_shuffled_indices_is_permutation(self, rng):
        indices = shuffled_indices(10, rng)
        assert sorted(indices.tolist()) == list(range(10))

    def test_shuffled_indices_subset(self, rng):
        subset = [3, 5, 7]
        indices = shuffled_indices(10, rng, subset=subset)
        assert sorted(indices.tolist()) == subset

    def test_choice_without_replacement_distinct(self, rng):
        chosen = choice_without_replacement(rng, 20, 10)
        assert len(set(chosen.tolist())) == 10

    def test_choice_without_replacement_from_iterable(self, rng):
        chosen = choice_without_replacement(rng, [10, 20, 30, 40], 2)
        assert set(chosen.tolist()).issubset({10, 20, 30, 40})

    def test_choice_too_many_rejected(self, rng):
        with pytest.raises(ValueError):
            choice_without_replacement(rng, 3, 5)


class TestStreamContract:
    @settings(max_examples=60, deadline=None)
    @given(seed=seed_values, path=paths)
    def test_sample_stream_equals_list_seeded_default_rng(self, seed, path):
        expected = np.random.default_rng(np.random.SeedSequence(list_entropy(seed, path)))
        stream = sample_stream(seed, *path)
        np.testing.assert_array_equal(stream.normal(size=7), expected.normal(size=7))
        assert stream.integers(0, MASK, dtype=np.uint64) == expected.integers(
            0, MASK, dtype=np.uint64
        )

    @settings(max_examples=20, deadline=None)
    @given(seed=seed_values, path=paths)
    def test_sample_stream_accepts_numpy_integers(self, seed, path):
        as_numpy = sample_stream(np.uint64(seed & MASK), *map(np.uint64, path))
        np.testing.assert_array_equal(
            as_numpy.normal(size=3), sample_stream(seed, *path).normal(size=3)
        )

    @settings(max_examples=60, deadline=None)
    @given(seed=seed_values, path=paths)
    def test_fold_seed_equals_list_seeded_generate_state(self, seed, path):
        state = np.random.SeedSequence(list_entropy(seed, path)).generate_state(
            1, dtype=np.uint64
        )
        folded = fold_seed(seed, *path)
        assert isinstance(folded, int)
        assert folded == int(state[0])

    @settings(max_examples=40, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, MASK), min_size=1, max_size=12),
        split=st.integers(0, 12),
        path=paths,
        std=st.floats(1e-4, 1.0),
    )
    def test_seeded_noise_factors_rows_ignore_the_batch_split(self, seeds, split, path, std):
        seeds = np.array(seeds, dtype=np.uint64)
        split = min(split, len(seeds))
        whole = seeded_noise_factors(seeds, *path, std=std)
        parts = np.concatenate(
            [
                seeded_noise_factors(seeds[:split], *path, std=std),
                seeded_noise_factors(seeds[split:], *path, std=std),
            ]
        )
        np.testing.assert_array_equal(whole, parts)
        for i, seed in enumerate(seeds):
            solo = 1.0 + sample_stream(int(seed), *path).normal(0.0, std)
            assert whole[i] == solo
            assert seeded_noise_factors(seeds[i : i + 1], *path, std=std)[0] == solo

    def test_derive_request_seeds_is_pinned(self):
        np.testing.assert_array_equal(
            derive_request_seeds(0, 0, 2),
            np.array([17913671590881668180, 5125111896206277188], dtype=np.uint64),
        )
        np.testing.assert_array_equal(
            derive_request_seeds(2**40 + 3, 17, 3),
            np.array(
                [15264222648397853028, 661932935869304948, 14006796078612388492],
                dtype=np.uint64,
            ),
        )


class TestValidateSeeds:
    def test_integer_seeds_become_uint64(self):
        seeds = validate_seeds([0, 2**32, MASK], 3)
        assert seeds.dtype == np.uint64
        np.testing.assert_array_equal(seeds, np.array([0, 2**32, MASK], dtype=np.uint64))
        np.testing.assert_array_equal(validate_seeds(np.arange(4), 4), np.arange(4))

    def test_empty_seeds_for_an_empty_batch(self):
        assert validate_seeds([], 0).dtype == np.uint64

    def test_float_seeds_rejected(self):
        # 1.5 would truncate onto seed 1's stream.
        with pytest.raises(ValueError, match="seeds must be integers"):
            validate_seeds([1.5, 2], 2)

    def test_bool_and_string_seeds_rejected(self):
        with pytest.raises(ValueError, match="seeds must be integers"):
            validate_seeds([True, False], 2)
        with pytest.raises(ValueError, match="seeds must be integers"):
            validate_seeds(["1", "2"], 2)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"seeds must lie in \[0, 2\*\*64\)"):
            validate_seeds([-1], 1)

    def test_too_wide_seed_rejected(self):
        with pytest.raises(ValueError, match=r"seeds must lie in \[0, 2\*\*64\)"):
            validate_seeds([2**64], 1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one seed per batch row"):
            validate_seeds([1, 2], 3)
        with pytest.raises(ValueError, match="one seed per batch row"):
            validate_seeds([[1, 2]], 1)

    def test_error_names_the_argument(self):
        with pytest.raises(ValueError, match="sample_seeds must be integers"):
            validate_seeds([0.5], 1, name="sample_seeds")
