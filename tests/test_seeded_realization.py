"""Seeded read-noise realizations of one crossbar array.

The seeded path of :class:`~repro.crossbar.array.CrossbarArray` realises a
fresh noisy read per batch row.  It runs vectorised, a chunk of rows at a
time; these tests hold it to the one-row-at-a-time reference written out
below, bit for bit, and bound the memory one call may take.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.oracle import Oracle
from repro.crossbar import array as array_module
from repro.crossbar.accelerator import CrossbarAccelerator
from repro.crossbar.array import CrossbarArray
from repro.crossbar.devices import PCM_DEVICE, RERAM_DEVICE
from repro.crossbar.mapping import ConductanceMapping
from repro.crossbar.nonidealities import NonidealityConfig
from repro.nn.layers import Dense
from repro.nn.network import Sequential
from repro.utils.rng import sample_stream, seeded_noise_factors

DEVICES = {"reram": RERAM_DEVICE, "pcm": PCM_DEVICE}
OPERATIONS = ("matvec", "total_current", "matvec_with_current")


def reference_traverse(array, batch, seeds, *, want_outputs, want_totals):
    """Seeded noisy traversal, one row at a time (the unbatched definition).

    Row ``i`` reads G+ then G- through its own ``(seed, 1, noise_tag, 0)``
    stream, attenuates the read by the 2-D IR-drop model and drives it with
    ``batch[i]``; rail noise multiplies the totals afterwards.
    """
    device = array.device
    resistance = array.nonidealities.wire_resistance_ohm
    outputs = np.empty((len(batch), array.n_rows)) if want_outputs else None
    totals = np.empty(len(batch)) if want_totals else None
    for i, (row, seed) in enumerate(zip(batch, seeds)):
        rng = sample_stream(seed, 1, array.noise_tag, 0)
        g_plus = np.clip(
            array.g_plus * (1.0 + rng.normal(0.0, device.read_noise, size=array.shape)),
            0.0,
            device.g_max,
        )
        g_minus = np.clip(
            array.g_minus * (1.0 + rng.normal(0.0, device.read_noise, size=array.shape)),
            0.0,
            device.g_max,
        )
        effective = g_plus - g_minus
        g_sum = g_plus + g_minus
        if resistance != 0:
            total = g_plus + g_minus
            column_g = total.sum(axis=0)
            row_g = total.sum(axis=1)
            row_depth = np.arange(1, total.shape[0] + 1, dtype=float)
            col_length = np.arange(1, total.shape[1] + 1, dtype=float)
            drop = resistance * (
                column_g[np.newaxis, :] * row_depth[:, np.newaxis]
                + row_g[:, np.newaxis] * col_length[np.newaxis, :]
            )
            droop = 1.0 / (1.0 + drop)
            effective = effective * droop
            g_sum = g_sum * droop
        column_sums = g_sum.sum(axis=0)
        if want_outputs:
            outputs[i] = effective @ row
        if want_totals:
            totals[i] = row @ column_sums
    noise = array.nonidealities.current_measurement_noise
    if want_totals and noise > 0:
        totals = totals * seeded_noise_factors(
            seeds, 1, array.noise_tag, 1, std=noise
        )
    return outputs, totals


@st.composite
def seeded_cases(draw):
    n_rows = draw(st.integers(1, 70))
    n_columns = draw(st.integers(1, 70))
    batch_size = draw(st.integers(1, 70))
    return {
        "shape": (n_rows, n_columns),
        "batch_size": batch_size,
        "device": draw(st.sampled_from(sorted(DEVICES))),
        "wire_resistance_ohm": draw(st.sampled_from([0.0, 1e-5])),
        "rail_noise": draw(st.sampled_from([0.0, 0.1])),
        "operation": draw(st.sampled_from(OPERATIONS)),
        "chunk_rows": draw(st.integers(1, batch_size)),
        "column_slice": draw(st.booleans()),
        "noise_tag": draw(st.integers(0, 5)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def build_array(case):
    data = np.random.default_rng(case["seed"])
    weights = data.normal(size=case["shape"])
    array = CrossbarArray(
        weights,
        mapping=ConductanceMapping(device=DEVICES[case["device"]]),
        nonidealities=NonidealityConfig(
            wire_resistance_ohm=case["wire_resistance_ohm"],
            current_measurement_noise=case["rail_noise"],
        ),
        random_state=case["seed"],
    )
    array.noise_tag = case["noise_tag"]
    n_columns = case["shape"][1]
    batch = data.uniform(0.0, 1.0, size=(case["batch_size"], n_columns + 3))
    # A tile drives a column shard with a column slice of its activations.
    batch = batch[:, 1 : n_columns + 1] if case["column_slice"] else batch[:, :n_columns].copy()
    seeds = data.integers(0, 2**64 - 1, size=case["batch_size"], dtype=np.uint64, endpoint=True)
    return array, batch, seeds


class TestBatchedRealizationMatchesPerRowReference:
    @settings(max_examples=60, deadline=None)
    @given(case=seeded_cases())
    def test_bitwise_equal_under_any_chunking(self, case):
        array, batch, seeds = build_array(case)
        n_rows, n_columns = case["shape"]
        # Force chunks of ``chunk_rows`` rows so a batch spans several.
        budget = (
            case["chunk_rows"] * array_module._PLANES_PER_REALIZATION * 8 * n_rows * n_columns
        )
        operation = case["operation"]
        with mock.patch.object(array_module, "_REALIZATION_CHUNK_BYTES", budget):
            result = getattr(array, operation)(batch, sample_seeds=seeds)
        expected_outputs, expected_totals = reference_traverse(
            array,
            batch,
            seeds,
            want_outputs=operation != "total_current",
            want_totals=operation != "matvec",
        )
        if operation == "matvec":
            np.testing.assert_array_equal(result, expected_outputs)
        elif operation == "total_current":
            np.testing.assert_array_equal(result, expected_totals)
        else:
            np.testing.assert_array_equal(result[0], expected_outputs)
            np.testing.assert_array_equal(result[1], expected_totals)

    def test_default_budget_spans_several_chunks_on_a_large_array(self):
        case = {
            "shape": (300, 301),
            "batch_size": 12,
            "device": "pcm",
            "wire_resistance_ohm": 1e-5,
            "rail_noise": 0.1,
            "chunk_rows": 1,
            "column_slice": True,
            "noise_tag": 3,
            "seed": 11,
        }
        array, batch, seeds = build_array(case)
        row_bytes = array_module._PLANES_PER_REALIZATION * 8 * 300 * 301
        assert array_module._REALIZATION_CHUNK_BYTES // row_bytes < len(batch)
        outputs, totals = array.matvec_with_current(batch, sample_seeds=seeds)
        expected = reference_traverse(array, batch, seeds, want_outputs=True, want_totals=True)
        np.testing.assert_array_equal(outputs, expected[0])
        np.testing.assert_array_equal(totals, expected[1])

    def test_each_row_matches_its_solo_call(self):
        case = {
            "shape": (9, 33),
            "batch_size": 17,
            "device": "reram",
            "wire_resistance_ohm": 1e-5,
            "rail_noise": 0.1,
            "chunk_rows": 1,
            "column_slice": False,
            "noise_tag": 0,
            "seed": 4,
        }
        array, batch, seeds = build_array(case)
        outputs, totals = array.matvec_with_current(batch, sample_seeds=seeds)
        for i in range(len(batch)):
            solo_outputs, solo_total = array.matvec_with_current(
                batch[i], sample_seeds=seeds[i : i + 1]
            )
            np.testing.assert_array_equal(outputs[i], solo_outputs)
            assert totals[i] == solo_total

    def test_counts_one_realization_per_seeded_row(self):
        array, batch, seeds = build_array(
            {
                "shape": (5, 8),
                "batch_size": 7,
                "device": "reram",
                "wire_resistance_ohm": 0.0,
                "rail_noise": 0.0,
                "chunk_rows": 1,
                "column_slice": False,
                "noise_tag": 0,
                "seed": 0,
            }
        )
        array.reset_counters()
        array.matvec_with_current(batch, sample_seeds=seeds)
        assert (array.n_operations, array.n_realizations) == (1, 7)


class TestSeededMemoryBound:
    def test_peak_stays_near_the_chunk_budget(self):
        """B=64 on a 1024x1025 read-noise array: unchunked it would take ~1 GB."""
        weights = np.random.default_rng(0).normal(size=(1024, 1025))
        array = CrossbarArray(
            weights, mapping=ConductanceMapping(device=RERAM_DEVICE), random_state=0
        )
        batch = np.random.default_rng(1).uniform(size=(64, 1025))
        seeds = np.arange(64, dtype=np.uint64)
        unchunked = 64 * array_module._PLANES_PER_REALIZATION * weights.nbytes
        tracemalloc.start()
        try:
            totals = array.total_current(batch, sample_seeds=seeds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert totals.shape == (64,)
        # One row's working set (~50 MB) exceeds the budget, so a chunk is
        # one row; add the stacked G+ / G- it reads from.
        bound = max(
            array_module._REALIZATION_CHUNK_BYTES,
            array_module._PLANES_PER_REALIZATION * weights.nbytes,
        ) + 2 * weights.nbytes
        assert peak < 1.1 * bound
        assert peak < unchunked / 10


def paper_oracle():
    network = Sequential([Dense(12, 3, activation="softmax", random_state=0)])
    accelerator = CrossbarAccelerator(
        network, mapping=ConductanceMapping(device=RERAM_DEVICE), random_state=0
    )
    return Oracle(accelerator, expose_power=True, random_state=0)


BAD_SEEDS = {
    "non-integer": [1.5, 2],
    "negative": [-1, 2],
    "too wide": [2**64, 2],
}


class TestSeedValidationAtTheCallers:
    @pytest.mark.parametrize("seeds", BAD_SEEDS.values(), ids=BAD_SEEDS.keys())
    def test_oracle_query_rejects_bad_seeds(self, seeds):
        oracle = paper_oracle()
        with pytest.raises(ValueError, match="seeds must"):
            oracle.query(np.ones((2, 12)), seeds=seeds)
        assert oracle.queries_used == 0

    @pytest.mark.parametrize("seeds", BAD_SEEDS.values(), ids=BAD_SEEDS.keys())
    def test_crossbar_array_rejects_bad_seeds(self, seeds):
        array = CrossbarArray(
            np.ones((3, 4)), mapping=ConductanceMapping(device=RERAM_DEVICE), random_state=0
        )
        with pytest.raises(ValueError, match="sample_seeds must"):
            array.matvec_with_current(np.ones((2, 4)), sample_seeds=seeds)

    def test_float_seed_no_longer_aliases_an_integer_seed(self):
        oracle = paper_oracle()
        with pytest.raises(ValueError, match="seeds must be integers"):
            oracle.query(np.ones((1, 12)), seeds=[1.0])
