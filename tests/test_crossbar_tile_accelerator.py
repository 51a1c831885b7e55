"""Tests for repro.crossbar.tile and repro.crossbar.accelerator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.correlation import pearson_correlation
from repro.crossbar.accelerator import CrossbarAccelerator
from repro.crossbar.adc_dac import ADC, DAC
from repro.crossbar.array import CrossbarArray
from repro.crossbar.devices import IDEAL_DEVICE
from repro.crossbar.mapping import ConductanceMapping
from repro.crossbar.nonidealities import NonidealityConfig
from repro.crossbar.tile import CrossbarTile
from repro.nn.gradients import weight_column_norms
from repro.nn.layers import Dense
from repro.nn.network import Sequential


class TestCrossbarTile:
    def test_ideal_tile_matches_software_layer(self, rng):
        layer = Dense(6, 4, activation="softmax", random_state=0)
        tile = CrossbarTile(layer, random_state=0)
        inputs = rng.uniform(0, 1, size=(5, 6))
        np.testing.assert_allclose(tile.forward(inputs), layer.forward(inputs), atol=1e-10)

    def test_single_vector_input(self, rng):
        layer = Dense(6, 4, activation="linear", random_state=0)
        tile = CrossbarTile(layer, random_state=0)
        u = rng.uniform(0, 1, size=6)
        assert tile.forward(u).shape == (4,)
        assert np.isscalar(tile.total_current(u))

    def test_bias_mapped_to_extra_column(self, rng):
        layer = Dense(5, 3, activation="linear", use_bias=True, random_state=0)
        layer.set_weights(rng.normal(size=(3, 5)), bias=rng.normal(size=3))
        tile = CrossbarTile(layer, random_state=0)
        assert tile.physical_arrays[0].n_columns == 6
        inputs = rng.uniform(0, 1, size=(4, 5))
        np.testing.assert_allclose(tile.forward(inputs), layer.forward(inputs), atol=1e-10)

    def test_column_sums_exclude_bias_column(self, rng):
        layer = Dense(5, 3, activation="linear", use_bias=True, random_state=0)
        tile = CrossbarTile(layer, random_state=0)
        assert len(tile.column_conductance_sums) == 5

    def test_total_current_proportional_to_column_1_norms(self, rng):
        layer = Dense(6, 4, activation="linear", random_state=0)
        tile = CrossbarTile(layer, random_state=0)
        # probing with basis vectors recovers the per-column conductance sums
        probes = np.eye(6)
        currents = tile.total_current(probes)
        norms = weight_column_norms(layer.weights)
        correlation = np.corrcoef(currents, norms)[0, 1]
        assert correlation > 0.999999

    def test_dac_quantization_degrades_fidelity(self, rng):
        layer = Dense(8, 4, activation="linear", random_state=0)
        ideal = CrossbarTile(layer, random_state=0)
        coarse = CrossbarTile(layer, dac=DAC(n_bits=2), random_state=0)
        inputs = rng.uniform(0, 1, size=(10, 8))
        ideal_error = np.abs(ideal.forward(inputs) - layer.forward(inputs)).max()
        coarse_error = np.abs(coarse.forward(inputs) - layer.forward(inputs)).max()
        assert ideal_error < 1e-10
        assert coarse_error > ideal_error

    def test_adc_applied_to_output(self, rng):
        layer = Dense(6, 3, activation="linear", random_state=0)
        tile = CrossbarTile(layer, adc=ADC(n_bits=2, current_range=(-1, 1)), random_state=0)
        out = tile.pre_activation(rng.uniform(0, 1, size=(4, 6)))
        assert np.isfinite(out).all()

    def test_wrong_input_dimension(self, rng):
        tile = CrossbarTile(Dense(6, 3, random_state=0), random_state=0)
        with pytest.raises(ValueError):
            tile.forward(rng.uniform(size=(2, 7)))


class TestSingleArrayTileProperty:
    """A default (1x1) tile is one programmed array behind the DAC/ADC/activation."""

    @given(
        n_inputs=st.integers(1, 12),
        n_outputs=st.integers(1, 8),
        use_bias=st.booleans(),
        read_noise=st.sampled_from([0.0, 0.05]),
        measurement_noise=st.sampled_from([0.0, 0.03]),
        seeded=st.booleans(),
        with_adc=st.booleans(),
        batch=st.integers(1, 64),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_default_tile_is_bitwise_one_array(
        self, n_inputs, n_outputs, use_bias, read_noise, measurement_noise,
        seeded, with_adc, batch, seed,
    ):
        rng = np.random.default_rng(seed)
        layer = Dense(n_inputs, n_outputs, activation="relu", use_bias=use_bias,
                      random_state=seed)
        if use_bias:
            layer.set_weights(layer.weights, bias=rng.normal(size=n_outputs))
        mapping = ConductanceMapping(device=IDEAL_DEVICE.with_noise(read_noise=read_noise))
        nonidealities = NonidealityConfig(current_measurement_noise=measurement_noise)
        adc = ADC(n_bits=6, current_range=(-2.0, 2.0)) if with_adc else None
        tile = CrossbarTile(layer, mapping=mapping, nonidealities=nonidealities, adc=adc,
                            random_state=np.random.default_rng(seed))

        weights = layer.weights
        if use_bias:
            weights = np.concatenate([weights, layer.bias[:, np.newaxis]], axis=1)
        array = CrossbarArray(weights, mapping=mapping, nonidealities=nonidealities,
                              random_state=np.random.default_rng(seed))
        to_logical = 1.0 / mapping.conductance_per_unit_weight(weights)

        inputs = rng.uniform(0, 1, size=(batch, n_inputs))
        voltages = DAC().convert(inputs)
        if use_bias:
            voltages = np.concatenate([voltages, np.ones((batch, 1))], axis=1)
        seeds = rng.integers(0, 2**32, size=batch) if seeded else None

        def logical(currents):
            if adc is not None:
                currents = adc.convert(currents)
            return tile.activation.forward(currents * to_logical)

        np.testing.assert_array_equal(
            tile.forward_batch(inputs, sample_seeds=seeds),
            logical(array.matvec(voltages, sample_seeds=seeds)),
        )
        outputs, shard_currents = tile.forward_with_power_shards(inputs, sample_seeds=seeds)
        currents, totals = array.matvec_with_current(voltages, sample_seeds=seeds)
        np.testing.assert_array_equal(outputs, logical(currents))
        np.testing.assert_array_equal(shard_currents, totals[:, np.newaxis])
        np.testing.assert_array_equal(
            tile.total_current(inputs, sample_seeds=seeds),
            array.total_current(voltages, sample_seeds=seeds),
        )
        assert tile.n_array_operations == array.n_operations == 3
        assert tile.n_array_realizations == array.n_realizations


class TestCrossbarAccelerator:
    def test_matches_software_network(self, trained_softmax, mnist_small):
        accelerator = CrossbarAccelerator(trained_softmax, random_state=0)
        inputs = mnist_small.test_inputs[:20]
        np.testing.assert_allclose(
            accelerator.forward(inputs), trained_softmax.predict(inputs), atol=1e-8
        )
        assert accelerator.fidelity(inputs) < 1e-10

    def test_predict_labels_agree(self, trained_softmax, mnist_small):
        accelerator = CrossbarAccelerator(trained_softmax, random_state=0)
        inputs = mnist_small.test_inputs[:20]
        np.testing.assert_array_equal(
            accelerator.predict_labels(inputs), trained_softmax.predict_labels(inputs)
        )

    def test_power_trace_shapes(self, accelerator, mnist_small):
        report = accelerator.power_trace(mnist_small.test_inputs[:7])
        assert report.total_current.shape == (7,)
        assert report.per_tile_current.shape == (7, 1)
        assert np.all(report.total_current > 0)

    def test_total_current_single_input(self, accelerator, mnist_small):
        value = accelerator.total_current(mnist_small.test_inputs[0])
        assert np.isscalar(value) and value > 0

    def test_multi_layer_accelerator(self, rng):
        network = Sequential(
            [Dense(10, 6, activation="relu", random_state=0), Dense(6, 3, random_state=1)]
        )
        accelerator = CrossbarAccelerator(network, random_state=0)
        assert accelerator.n_tiles == 2
        inputs = rng.uniform(0, 1, size=(4, 10))
        np.testing.assert_allclose(
            accelerator.forward(inputs), network.predict(inputs), atol=1e-8
        )
        report = accelerator.power_trace(inputs)
        assert report.per_tile_current.shape == (4, 2)
        np.testing.assert_allclose(
            report.total_current, report.per_tile_current.sum(axis=1)
        )

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError):
            CrossbarAccelerator(Sequential())

    def test_nonideal_accelerator_diverges_from_software(self, trained_softmax, mnist_small):
        noisy = CrossbarAccelerator(
            trained_softmax,
            mapping=ConductanceMapping(device=IDEAL_DEVICE.with_noise(read_noise=0.05)),
            nonidealities=NonidealityConfig(wire_resistance_ohm=0.01),
            random_state=0,
        )
        assert noisy.fidelity(mnist_small.test_inputs[:10]) > 1e-6

    def test_balanced_mapping_hides_column_norms(self, trained_linear):
        """Ablation: with the balanced mapping the power channel leaks nothing."""
        balanced = CrossbarAccelerator(
            trained_linear,
            mapping=ConductanceMapping(scheme="balanced"),
            random_state=0,
        )
        n_features = trained_linear.layers[0].n_inputs
        probes = np.eye(n_features)
        currents = balanced.total_current(probes)
        norms = weight_column_norms(trained_linear.weights)
        correlation = abs(pearson_correlation(currents, norms))
        assert currents.std() / currents.mean() < 1e-6 or correlation < 0.2
