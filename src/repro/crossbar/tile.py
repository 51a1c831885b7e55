"""Crossbar tiles: one neural-network layer placed on a grid of physical arrays.

:class:`CrossbarTile` implements a dense layer exactly as Figure 2 of the
paper draws it — input DAC, crossbar, output ADC, then the layer's
activation applied digitally after conversion (``v_y = f(i_s) = f(G v_u)``).
The crossbar is a ``row_shards x col_shards`` grid of physical
:class:`~repro.crossbar.array.CrossbarArray` shards described by a
:class:`~repro.crossbar.mapping.ShardingSpec`, 1x1 by default.

The full weight matrix (bias column included) is programmed **once**, so the
physical devices do not depend on the placement.  A 1x1 grid keeps that
programmed array as its single shard and draws nothing more from the
generator; a larger grid hands each shard its slice of the programmed
conductances and its own read-noise/measurement-noise stream (they are
distinct physical tiles).

Per batch every shard is traversed exactly once through
:func:`~repro.crossbar.shard.run_shard`: row-shard outputs are concatenated,
column-shard partial outputs are reduced in the spec's declared order, and
each shard's supply current remains individually observable — the per-tile
observables the paper's hardware discussion assumes.  For ideal
(noise-free) devices a grid performs the same exact-arithmetic operations as
a single array, so placements agree bit-for-bit whenever no float rounding
occurs and to ~1e-12 otherwise.

Batches stream through in 2-D form end to end: the internal ``*_batch``
helpers assume ``(B, n_inputs)`` arrays and never re-wrap their operands,
while the public methods only handle the single-vector/batch shape
convention at the boundary.  :meth:`CrossbarTile.forward_with_power_shards`
is the fused interface the accelerator drives: one call yields the layer
outputs and a ``(B, n_physical_tiles)`` matrix of per-shard supply currents
from the same conductance realizations.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from itertools import product
from typing import List, Optional, Tuple

import numpy as np

from repro.crossbar.adc_dac import ADC, DAC
from repro.crossbar.array import CrossbarArray
from repro.crossbar.mapping import (
    UNSHARDED,
    ConductanceMapping,
    ShardingSpec,
    reduce_partial_sums,
)
from repro.crossbar.nonidealities import NonidealityConfig
from repro.crossbar.shard import ShardProgram, run_shard
from repro.nn.activations import Activation, get_activation
from repro.nn.layers import Dense
from repro.utils.rng import RandomState, as_rng


class CrossbarTile:
    """One dense layer implemented on a grid of crossbar arrays.

    Parameters
    ----------
    layer:
        The trained :class:`~repro.nn.layers.Dense` layer to map.  Layers with
        a bias are mapped by adding one extra input column driven at a
        constant voltage of 1.
    sharding:
        The :class:`~repro.crossbar.mapping.ShardingSpec` grid geometry;
        ``None`` places the layer on a single array.
    mapping:
        Conductance mapping; defaults to the ideal min-power mapping.
    nonidealities:
        Optional non-ideal effects.
    dac / adc:
        Converter models; ``None`` means ideal converters.
    runner:
        Optional :class:`~repro.experiments.runner.ParallelRunner` executing
        the shard kernels of a multi-shard grid concurrently (a single shard
        always runs inline).  ``thread`` runners traverse the host arrays
        directly (shared address space; bit-identical to serial — each
        shard's operations happen in the same order on the same array,
        results are collected in shard order).  ``process`` runners ship
        self-contained :class:`~repro.crossbar.shard.ShardProgram` snapshots
        to the worker pool instead: seeded and deterministic execution is
        bitwise identical to the serial path, unseeded stochastic execution
        receives a fresh per-call seed drawn from the host shard's own
        generator.  Construction verifies up front that the programs can
        cross the address space and raises
        :class:`~repro.crossbar.shard.NonPicklableShardError` for
        device-resident backend state (e.g. cupy operands).
    random_state:
        Seed for stochastic hardware effects.
    backend / dtype / batch_invariant:
        Compute-backend knobs forwarded to every physical
        :class:`~repro.crossbar.array.CrossbarArray` (see that class);
        converters and activations stay host-side.
    """

    def __init__(
        self,
        layer: Dense,
        sharding: Optional[ShardingSpec] = None,
        *,
        mapping: Optional[ConductanceMapping] = None,
        nonidealities: Optional[NonidealityConfig] = None,
        dac: Optional[DAC] = None,
        adc: Optional[ADC] = None,
        runner=None,
        random_state: RandomState = None,
        backend=None,
        dtype="float64",
        batch_invariant: bool = False,
    ):
        sharding = UNSHARDED if sharding is None else sharding
        if not isinstance(sharding, ShardingSpec):
            raise TypeError(
                f"sharding must be a ShardingSpec, got {type(sharding).__name__}"
            )
        self.layer = layer
        self.activation: Activation = get_activation(layer.activation)
        self._sharding = sharding
        self._has_bias_column = bool(layer.use_bias)

        weights = layer.weights
        if self._has_bias_column:
            weights = np.concatenate([weights, layer.bias[:, np.newaxis]], axis=1)
        mapping = mapping if mapping is not None else ConductanceMapping()
        # Scale factor converting output currents back to the digital domain.
        self._current_to_logical = 1.0 / mapping.conductance_per_unit_weight(weights)
        self._place(
            weights,
            mapping,
            nonidealities,
            as_rng(random_state),
            {"backend": backend, "dtype": dtype, "batch_invariant": batch_invariant},
        )
        self.dac = dac if dac is not None else DAC()
        self.adc = adc

        # A single shard always runs inline; the runner's mode is read once.
        self._runner = runner if sharding.n_shards > 1 else None
        self._offload = getattr(self._runner, "mode", None) == "process"
        self._shard_programs: Optional[List[ShardProgram]] = None
        if self._offload:
            # Process execution is legal whenever the programmed state can
            # cross the address space; probe that now, not mid-query.
            self.shard_programs()[0].require_picklable()

    # ----------------------------------------------------------------- engine

    def _place(
        self,
        weights: np.ndarray,
        mapping: ConductanceMapping,
        nonidealities: Optional[NonidealityConfig],
        rng: np.random.Generator,
        engine_opts: dict,
    ) -> None:
        """Program the full matrix once, then slice it into the shard grid."""
        programmed = CrossbarArray(
            weights,
            mapping=mapping,
            nonidealities=nonidealities,
            random_state=rng,
            **engine_opts,
        )
        row_sections, col_sections = self._sharding.shard_sections(*weights.shape)
        self._n_grid_rows = len(row_sections)
        self._n_grid_cols = len(col_sections)
        # array_split sections are contiguous index ranges; basic slices give
        # copy-free views of the batch in the per-shard hot path.
        self._col_slices = [
            slice(int(cols[0]), int(cols[-1]) + 1) for cols in col_sections
        ]
        if self._sharding.is_trivial:
            self._arrays = [programmed]
            self._shard_seeds = [0]
            return
        # Pin the weight scale to the full matrix so every shard converts
        # currents with the same factor the single-array placement uses.
        shard_mapping = replace(
            mapping, weight_scale=mapping.resolve_weight_scale(weights)
        )
        # Integer seed material first, generators second — the exact draws
        # spawn_rngs(rng, n) performs, but keeping the plain-int seeds lets a
        # ShardProgram reconstruct each shard's generator start state in a
        # worker process bit-exactly.
        self._shard_seeds = [
            int(seed)
            for seed in rng.integers(0, 2**63 - 1, size=self._sharding.n_shards)
        ]
        self._arrays = [
            CrossbarArray.from_conductances(
                programmed.g_plus[np.ix_(rows, cols)],
                programmed.g_minus[np.ix_(rows, cols)],
                mapping=shard_mapping,
                nonidealities=nonidealities,
                reference_weights=weights[np.ix_(rows, cols)],
                random_state=np.random.default_rng(seed),
                **engine_opts,
            )
            for (rows, cols), seed in zip(
                product(row_sections, col_sections), self._shard_seeds
            )
        ]

    # ----------------------------------------------------------- properties

    @property
    def n_inputs(self) -> int:
        """Logical input dimensionality (excluding the bias column)."""
        return self.layer.n_inputs

    @property
    def n_outputs(self) -> int:
        """Output dimensionality."""
        return self.layer.n_outputs

    @property
    def sharding(self) -> ShardingSpec:
        """The logical-to-physical placement of this layer (1x1 by default)."""
        return self._sharding

    @property
    def n_physical_tiles(self) -> int:
        """Number of physical crossbar arrays implementing the layer."""
        return len(self._arrays)

    @property
    def shard_shapes(self) -> List[Tuple[int, int]]:
        """``(rows, cols)`` of every physical array, row-major shard order."""
        return [array.shape for array in self._arrays]

    @property
    def physical_arrays(self) -> List[CrossbarArray]:
        """Every physical :class:`CrossbarArray`, row-major shard order."""
        return list(self._arrays)

    def shard_programs(self) -> List[ShardProgram]:
        """Picklable snapshots of every shard, row-major order (cached).

        The conductance matrices are static after programming, so the
        snapshots are built once on first use.  Each program carries the
        shard's own host-derived integer seed — the exact value its live
        generator was started from — which keeps the seeded noise path
        bit-identical no matter which address space executes the kernel.
        """
        if self._shard_programs is None:
            self._shard_programs = [
                ShardProgram.from_array(array, seed=seed)
                for array, seed in zip(self._arrays, self._shard_seeds)
            ]
        return self._shard_programs

    @property
    def column_conductance_sums(self) -> np.ndarray:
        """Per-logical-input column conductance sums (bias column excluded)."""
        n_cols = self._n_grid_cols
        columns = []
        for c in range(n_cols):
            sums = self._arrays[c].column_conductance_sums
            for array in self._arrays[c + n_cols :: n_cols]:
                sums = sums + array.column_conductance_sums
            columns.append(sums)
        sums = columns[0] if n_cols == 1 else np.concatenate(columns)
        if self._has_bias_column:
            return sums[:-1]
        return sums

    @property
    def n_array_operations(self) -> int:
        """Analogue traversals summed over the shards (fused ops count once)."""
        return sum(array.n_operations for array in self._arrays)

    @property
    def n_array_realizations(self) -> int:
        """Physical conductance reads summed over the shards."""
        return sum(array.n_realizations for array in self._arrays)

    def reset_operation_counters(self) -> None:
        """Reset the operation/realization counters of every physical array."""
        for array in self._arrays:
            array.reset_counters()

    # -------------------------------------------------------------- compute

    def _line_voltages(self, inputs: np.ndarray) -> np.ndarray:
        """Convert digital inputs to crossbar line voltages (DAC + bias column)."""
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        if inputs.shape[1] != self.n_inputs:
            raise ValueError(
                f"expected inputs with {self.n_inputs} features, got {inputs.shape[1]}"
            )
        voltages = self.dac.convert(inputs)
        if self._has_bias_column:
            ones = np.ones((voltages.shape[0], 1))
            voltages = np.concatenate([voltages, ones], axis=1)
        return voltages

    def _to_logical(self, currents: np.ndarray) -> np.ndarray:
        """ADC conversion + current-to-logical rescaling."""
        if self.adc is not None:
            currents = self.adc.convert(currents)
        return currents * self._current_to_logical

    def _run_shards(self, batch: np.ndarray, sample_seeds, want: str) -> List:
        """Traverse every shard once; results in row-major shard order.

        Shards run inline, on the runner's threads, or — decided at
        construction — as :class:`~repro.crossbar.shard.ShardProgram` jobs on
        its process pool (see :meth:`_program_job`).  Results are collected
        in shard order either way, so they are independent of the execution
        schedule.  The per-row ``sample_seeds`` are shared by every shard —
        each shard derives its own noise streams from them via its distinct
        :attr:`CrossbarArray.noise_tag`.
        """
        voltages = self._line_voltages(batch)
        columns = (
            [voltages]
            if self._n_grid_cols == 1
            else [voltages[:, cols] for cols in self._col_slices]
        )
        shard_voltages = columns * self._n_grid_rows  # row-major shard order
        if self._offload:
            jobs = [
                self._program_job(index, shard_v, sample_seeds)
                for index, shard_v in enumerate(shard_voltages)
            ]
        elif self._runner is None:
            return [
                run_shard(array, shard_v, sample_seeds, want=want)
                for array, shard_v in zip(self._arrays, shard_voltages)
            ]
        else:
            jobs = [
                (array, shard_v, sample_seeds)
                for array, shard_v in zip(self._arrays, shard_voltages)
            ]
        return self._runner.map(partial(run_shard, want=want), jobs)

    def _program_job(self, index: int, voltages: np.ndarray, sample_seeds) -> tuple:
        """A process-pool job for shard ``index``: its program, not the array.

        Workers need nothing from this address space.  Seeded and
        deterministic calls are pure functions of the job — bitwise
        identical to host execution.  An unseeded *stochastic* call needs
        fresh noise: a per-call ``rng_seed`` is drawn from the host shard's
        own generator, keeping all RNG statefulness host-side (statistically
        fresh draws, exactly one host draw per traversal).  The host array
        counts the traversal by the same rule a host traversal uses —
        workers are stateless and the counters describe the physical array,
        wherever the kernel ran.
        """
        program = self.shard_programs()[index]
        array = self._arrays[index]
        rng_seed = None
        if sample_seeds is None and not program.is_deterministic:
            rng_seed = int(array._rng.integers(0, 2**63 - 1))
        array.count_traversal(len(voltages), seeded=sample_seeds is not None)
        return program, voltages, sample_seeds, rng_seed

    def _join_rows(self, partials: List[np.ndarray]) -> np.ndarray:
        """Reduce column-shard partials per row shard, concatenate row outputs.

        A single grid column skips the reduction and a single grid row the
        concatenation, so a 1x1 grid returns its shard's output untouched.
        """
        n_cols = self._n_grid_cols
        if n_cols > 1:
            order = self._sharding.reduction
            partials = [
                reduce_partial_sums(partials[start : start + n_cols], order)
                for start in range(0, len(partials), n_cols)
            ]
        return partials[0] if len(partials) == 1 else np.concatenate(partials, axis=1)

    def pre_activation_batch(
        self, batch: np.ndarray, *, sample_seeds=None
    ) -> np.ndarray:
        """Analogue MVM for a ``(B, n_inputs)`` batch; always returns 2-D."""
        return self._to_logical(
            self._join_rows(self._run_shards(batch, sample_seeds, "outputs"))
        )

    def pre_activation(self, inputs: np.ndarray) -> np.ndarray:
        """Analogue MVM result converted back to the logical weight domain."""
        single = np.asarray(inputs).ndim == 1
        logical = self.pre_activation_batch(inputs)
        return logical[0] if single else logical

    def forward_batch(self, batch: np.ndarray, *, sample_seeds=None) -> np.ndarray:
        """Layer output for a ``(B, n_inputs)`` batch; always returns 2-D."""
        return self.activation.forward(
            self.pre_activation_batch(batch, sample_seeds=sample_seeds)
        )

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Layer output ``f(W u)`` computed through the crossbar."""
        single = np.asarray(inputs).ndim == 1
        out = self.forward_batch(inputs)
        return out[0] if single else out

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        return self.forward(inputs)

    def forward_with_power_shards(
        self, batch: np.ndarray, *, sample_seeds=None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fused outputs + per-shard currents, one traversal per shard.

        The interface the accelerator drives: returns
        ``(outputs (B, n_outputs), shard_currents (B, n_physical_tiles))``
        with current columns in row-major shard order; every shard's output
        and current come from the same conductance realization.
        """
        results = self._run_shards(batch, sample_seeds, "both")
        if len(results) == 1:
            outputs, totals = results[0]
            shard_currents = totals[:, np.newaxis]
        else:
            outputs = self._join_rows([pair[0] for pair in results])
            shard_currents = np.stack([pair[1] for pair in results], axis=1)
        return self.activation.forward(self._to_logical(outputs)), shard_currents

    def reduce_shard_currents(self, shard_currents: np.ndarray) -> np.ndarray:
        """Layer total current: partial-sum reduction over the shard columns."""
        if shard_currents.shape[1] == 1:
            return shard_currents[:, 0]
        columns = [shard_currents[:, k] for k in range(shard_currents.shape[1])]
        return reduce_partial_sums(columns, self._sharding.reduction)

    def forward_with_power_batch(
        self, batch: np.ndarray, *, sample_seeds=None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fused layer output + supply current for a ``(B, n_inputs)`` batch.

        Returns ``(outputs (B, n_outputs), total_currents (B,))``.
        """
        outputs, shard_currents = self.forward_with_power_shards(
            batch, sample_seeds=sample_seeds
        )
        return outputs, self.reduce_shard_currents(shard_currents)

    def forward_with_power(self, inputs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Fused :meth:`forward` + :meth:`total_current` in a single pass.

        Returns ``(output, total_current)`` with the same shape conventions as
        the separate methods: ``((n_outputs,), float)`` for a 1-D input,
        ``((B, n_outputs), (B,))`` for a batch.  Both observables come from
        the same conductance realization.
        """
        single = np.asarray(inputs).ndim == 1
        outputs, totals = self.forward_with_power_batch(inputs)
        if single:
            return outputs[0], float(totals[0])
        return outputs, totals

    def total_current(self, inputs: np.ndarray, *, sample_seeds=None) -> np.ndarray:
        """The tile's power side channel for each input (Eq. 5).

        Each shard's rail is measured independently (per-shard measurement
        noise); the observable is the reduction of the per-shard currents.
        """
        single = np.asarray(inputs).ndim == 1
        partials = self._run_shards(inputs, sample_seeds, "totals")
        currents = reduce_partial_sums(partials, self._sharding.reduction)
        return float(currents[0]) if single else currents

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CrossbarTile(n_inputs={self.n_inputs}, n_outputs={self.n_outputs}, "
            f"activation={self.activation.name!r}, "
            f"grid={self._sharding.row_shards}x{self._sharding.col_shards})"
        )


#: Former name of the sharded tile, kept only because ``perfbench/layers.py``
#: imports it to trace ``forward_with_power_shards``.
ShardedTileGroup = CrossbarTile
