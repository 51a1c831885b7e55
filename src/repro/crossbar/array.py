"""The crossbar array: differential MVM and total-current measurement.

Implements the ideal behaviour of Eq. 3-5 of the paper plus the opt-in
non-idealities configured through
:class:`~repro.crossbar.nonidealities.NonidealityConfig`.

Fused single-pass engine
------------------------
Every analogue operation starts from the array's *effective state* — the
IR-drop-attenuated differential matrix ``(G+ - G-) * a`` and the attenuated
column conductance sums ``Σ_i (G+ + G-) * a`` — realised from one conductance
read.  Three properties of that state drive the engine:

* **Fusion.**  :meth:`matvec_with_current` computes the output currents
  (Eq. 3) *and* the total supply current (Eq. 5) from a *single* conductance
  realization, so the functional outputs and the power side channel observed
  by an attacker are physically consistent (one read, one noise draw) and the
  array is traversed once instead of twice.
* **Caching.**  When the device has no read noise the effective state is
  deterministic, so it is computed lazily once and reused by every subsequent
  :meth:`matvec` / :meth:`total_current` / :meth:`matvec_with_current` call.
  The cache is invalidated whenever ``g_plus`` / ``g_minus`` are rebound (it
  is keyed on the identity of both arrays); code that mutates the conductance
  matrices *in place* must call :meth:`invalidate_state_cache` afterwards.
  With read noise enabled the cache is bypassed and every operation draws a
  fresh realization, exactly as before.
* **Seeded realizations.**  With ``sample_seeds`` a noisy array reads
  itself once per batch row, from that row's own stream.  The rows are
  realised in one vectorised pass, a chunk at a time under a fixed byte
  budget (``_REALIZATION_CHUNK_BYTES``): one ``(2, M, N)`` draw per row into
  a shared buffer, one in-place read-noise and IR-drop pass over the chunk
  and one stacked ``np.matmul`` for outputs and totals.  Each row is
  bitwise what a one-row call computes, for any batch size or chunking.
* **Accounting.**  :attr:`n_operations` counts analogue array traversals and
  :attr:`n_realizations` counts physical conductance reads (cache hits
  realise nothing), both by the one rule in :meth:`count_traversal`, which
  also accounts for traversals run in a worker process.  Tests and
  benchmarks use these to prove the fused path traverses the array exactly
  once per batch.

Measurement noise (``current_measurement_noise``) is applied *after* the
cached dot product, so repeated total-current reads remain independently
noisy even when the effective state is cached.

Compute backends
----------------
All hot-path math goes through a pluggable
:class:`~repro.backend.ArrayBackend` (``backend="numpy"|"torch"|"cupy"|
"auto"``).  The cached effective-state operands are kept *device-resident* —
one host→device transfer per program/invalidate, not per query — while the
public methods keep accepting and returning host numpy arrays.  Seeded noise
is always generated host-side from the stateless counter-keyed streams and
shipped to the device, so within any one backend the seeded path stays a
bitwise pure function of ``(inputs, seeds)``; the numpy/float64 default
performs exactly the historical operations and is bit-identical to the
pre-backend engine.  ``dtype="float32"`` selects the fast path (documented
~1e-6 relative tolerance vs the float64 reference), and
``batch_invariant=True`` routes the *unseeded* path through the same
fixed-reduction-order einsum kernel family as the seeded path, trading BLAS
throughput for bitwise batch-size invariance without seeds.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.backend import ArrayBackend, get_backend
from repro.crossbar.devices import NVMDeviceModel
from repro.crossbar.mapping import ConductanceMapping
from repro.crossbar.nonidealities import NonidealityConfig
from repro.utils.rng import (
    RandomState,
    as_rng,
    sample_stream,
    seeded_noise_factors,
    validate_seeds,
)
from repro.utils.validation import check_matrix

#: Stream-path domain tag for array-level noise (see :func:`sample_stream`).
_ARRAY_DOMAIN = 1
#: Channel tags within the array domain.
_READ_CHANNEL = 0
_RAIL_CHANNEL = 1

#: Working-set budget of one chunk of seeded read-noise realizations; rows
#: are realised together in chunks that stay under it (at least one row).
_REALIZATION_CHUNK_BYTES = 32 << 20
#: ``(M, N)`` float64 planes one realised row holds at the peak of a chunk:
#: the G+ / G- read, the differential and summed matrices, and the IR-drop
#: factor with its one temporary.
_PLANES_PER_REALIZATION = 6


class _EffectiveState(NamedTuple):
    """One realised view of the array, shared by outputs and power.

    ``g_plus`` / ``g_minus`` are the *programmed* arrays the state was built
    from (identity-checked on cache lookup); ``effective`` and ``column_sums``
    are the host-side attenuated differential matrix and conductance sums,
    and ``effective_dev`` / ``column_sums_dev`` their device-resident
    counterparts in the backend's compute dtype (the same objects on the
    numpy/float64 reference path — no copy is made).
    """

    g_plus: np.ndarray
    g_minus: np.ndarray
    effective: np.ndarray
    column_sums: np.ndarray
    effective_dev: object
    column_sums_dev: object


class CrossbarArray:
    """A programmed NVM crossbar holding one weight matrix.

    The array is created by programming a weight matrix through a
    :class:`~repro.crossbar.mapping.ConductanceMapping`; afterwards it exposes
    the analogue operations the paper uses:

    * :meth:`matvec` — the differential matrix-vector product
      ``i_s = (G+ - G-) v_u`` (Eq. 3).
    * :meth:`total_current` — the summed current through all devices
      ``i_total = Σ_j v_j Σ_i (G+_ij + G-_ij)`` (Eq. 5), i.e. the power side
      channel.
    * :meth:`matvec_with_current` — both of the above fused into one pass
      over a single conductance realization (see the module docstring).

    Parameters
    ----------
    weights:
        The weight matrix ``(M, N)`` to program.
    mapping:
        Conductance mapping (device model + scheme).  Defaults to the ideal
        min-power mapping assumed in the paper.
    nonidealities:
        Optional non-ideal effects.
    random_state:
        Seed for programming noise, stuck devices and read noise.
    backend:
        Compute backend for the hot-path kernels: ``None``/``"numpy"`` (the
        bit-exact reference), ``"torch"``/``"cupy"`` (optional device
        backends), ``"auto"`` (best available), or an
        :class:`~repro.backend.ArrayBackend` instance.
    dtype:
        Compute dtype, ``"float64"`` (reference) or ``"float32"`` (fast
        path, ~1e-6 relative tolerance).
    batch_invariant:
        Route the *unseeded* path through the seeded path's fixed-shape
        einsum kernels so unseeded results are bitwise batch-size invariant
        (slower than BLAS; default off).
    """

    def __init__(
        self,
        weights: np.ndarray,
        *,
        mapping: Optional[ConductanceMapping] = None,
        nonidealities: Optional[NonidealityConfig] = None,
        random_state: RandomState = None,
        backend: Union[None, str, ArrayBackend] = None,
        dtype: Union[str, np.dtype] = "float64",
        batch_invariant: bool = False,
    ):
        weights = check_matrix(weights, "weights")
        self.mapping = mapping if mapping is not None else ConductanceMapping()
        self.nonidealities = (
            nonidealities if nonidealities is not None else NonidealityConfig()
        )
        self._rng = as_rng(random_state)
        self._reference_weights = weights.copy()
        self._init_backend(backend, dtype, batch_invariant)
        self._state_cache: Optional[_EffectiveState] = None
        self._n_operations = 0
        self._n_realizations = 0
        self.noise_tag = 0

        self.g_plus, self.g_minus = self.mapping.map(weights, random_state=self._rng)
        self._apply_static_nonidealities()

    def _init_backend(self, backend, dtype, batch_invariant) -> None:
        self.backend = get_backend(backend)
        self._dtype = self.backend.dtype(dtype)
        self.dtype = self.backend.dtype_name(self._dtype)
        self.batch_invariant = bool(batch_invariant)

    @classmethod
    def from_conductances(
        cls,
        g_plus: np.ndarray,
        g_minus: np.ndarray,
        *,
        mapping: ConductanceMapping,
        nonidealities: Optional[NonidealityConfig] = None,
        reference_weights: Optional[np.ndarray] = None,
        random_state: RandomState = None,
        backend: Union[None, str, ArrayBackend] = None,
        dtype: Union[str, np.dtype] = "float64",
        batch_invariant: bool = False,
    ) -> "CrossbarArray":
        """Build an array from already-programmed conductance matrices.

        Multi-tile sharding programs a logical weight matrix *once* (so the
        physical devices are identical to the single-tile placement) and then
        hands each shard its slice of ``G+`` / ``G-`` through this
        constructor.  Programming noise, quantization and static
        non-idealities are therefore **not** re-applied here — they already
        happened on the full matrix; only dynamic effects (read noise, IR
        drop, measurement noise) act per sub-array.

        ``mapping`` must carry an explicit ``weight_scale`` (the full-matrix
        scale) so :attr:`effective_weights` and the current-to-logical
        conversion agree with the unsharded array; ``reference_weights``
        defaults to the unmapped conductance difference.
        """
        if mapping.weight_scale is None:
            raise ValueError(
                "from_conductances requires a mapping with an explicit "
                "weight_scale (the scale resolved on the full weight matrix)"
            )
        g_plus = check_matrix(np.array(g_plus, dtype=float, copy=True), "g_plus")
        g_minus = check_matrix(np.array(g_minus, dtype=float, copy=True), "g_minus")
        if g_plus.shape != g_minus.shape:
            raise ValueError(
                f"g_plus shape {g_plus.shape} != g_minus shape {g_minus.shape}"
            )
        array = cls.__new__(cls)
        array.mapping = mapping
        array.nonidealities = (
            nonidealities if nonidealities is not None else NonidealityConfig()
        )
        array._rng = as_rng(random_state)
        array._init_backend(backend, dtype, batch_invariant)
        array.g_plus = g_plus
        array.g_minus = g_minus
        if reference_weights is None:
            reference_weights = mapping.unmap(g_plus, g_minus, g_plus)
        array._reference_weights = np.asarray(reference_weights, dtype=float).copy()
        array._state_cache = None
        array._n_operations = 0
        array._n_realizations = 0
        array.noise_tag = 0
        return array

    def program(self, weights: np.ndarray) -> None:
        """Re-program the array with a new weight matrix.

        Runs the full programming path — mapping, programming noise, static
        non-idealities — on ``weights`` using the array's own generator, and
        drops the cached effective state (including the device-resident
        operands) so the next operation realises the new devices.
        """
        weights = check_matrix(weights, "weights")
        self._reference_weights = weights.copy()
        self.g_plus, self.g_minus = self.mapping.map(weights, random_state=self._rng)
        self._apply_static_nonidealities()

    # ----------------------------------------------------------- properties

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, columns) = (outputs, inputs)."""
        return self.g_plus.shape

    @property
    def n_rows(self) -> int:
        """Number of output rows M."""
        return self.g_plus.shape[0]

    @property
    def n_columns(self) -> int:
        """Number of input columns N."""
        return self.g_plus.shape[1]

    @property
    def device(self) -> NVMDeviceModel:
        """The underlying device model."""
        return self.mapping.device

    @property
    def effective_weights(self) -> np.ndarray:
        """The weights actually implemented after programming non-idealities."""
        return self.mapping.unmap(self.g_plus, self.g_minus, self._reference_weights)

    @property
    def column_conductance_sums(self) -> np.ndarray:
        """``G_j`` for every column — the quantity leaked by the power channel."""
        return self.mapping.column_conductance_sums(self.g_plus, self.g_minus)

    @property
    def is_deterministic(self) -> bool:
        """True when a traversal draws nothing from the array's generator.

        Read noise and rail measurement noise are the only per-call
        stochastic effects on the compute path; without them (or with
        ``sample_seeds``) every operation is a pure function of its
        arguments.
        """
        return (
            self.device.read_noise == 0.0
            and self.nonidealities.current_measurement_noise == 0.0
        )

    # ------------------------------------------------------------ accounting

    @property
    def n_operations(self) -> int:
        """Analogue array traversals performed (fused ops count once)."""
        return self._n_operations

    @property
    def n_realizations(self) -> int:
        """Physical conductance reads realised (cache hits realise none)."""
        return self._n_realizations

    def reset_counters(self) -> None:
        """Reset the operation/realization counters."""
        self._n_operations = 0
        self._n_realizations = 0

    def count_traversal(self, n_rows: int, *, seeded: bool) -> Optional[_EffectiveState]:
        """Count one traversal and the conductance reads it realises.

        The one counting rule for every address space: a traversal run here
        calls it, and so does a dispatcher that ships a copy of this array
        to a worker process (which first fills the cache it ships).  A
        read-noise-free array is read once and its cached state (returned)
        serves every later call; a noisy one is read once per seeded row, or
        once per call without seeds, and ``None`` is returned.  The seeded
        reads of one traversal count one each even though they are realised
        together, in one vectorised, chunked pass.
        """
        self._n_operations += 1
        if self.device.read_noise == 0:
            return self._realize_state()
        self._n_realizations += n_rows if seeded else 1
        return None

    # -------------------------------------------------- static non-idealities

    def _apply_static_nonidealities(self) -> None:
        config = self.nonidealities
        if config.stuck_at_off_fraction > 0 or config.stuck_at_on_fraction > 0:
            total = self.g_plus.size + self.g_minus.size
            n_off = int(round(config.stuck_at_off_fraction * total))
            n_on = int(round(config.stuck_at_on_fraction * total))
            flat_indices = self._rng.permutation(total)
            off_idx = flat_indices[:n_off]
            on_idx = flat_indices[n_off : n_off + n_on]
            stacked = np.concatenate([self.g_plus.ravel(), self.g_minus.ravel()])
            stacked[off_idx] = self.device.g_min
            stacked[on_idx] = self.device.g_max
            split = self.g_plus.size
            self.g_plus = stacked[:split].reshape(self.g_plus.shape)
            self.g_minus = stacked[split:].reshape(self.g_minus.shape)
        if config.temperature_drift:
            factor = 1.0 + config.temperature_drift
            self.g_plus = np.clip(self.g_plus * factor, 0.0, self.device.g_max)
            self.g_minus = np.clip(self.g_minus * factor, 0.0, self.device.g_max)
        self.invalidate_state_cache()

    # ------------------------------------------------------------- dynamics

    def invalidate_state_cache(self) -> None:
        """Drop the cached effective state (and its device-resident operands).

        Required after mutating ``g_plus`` / ``g_minus`` *in place*; rebinding
        either attribute to a new array is detected automatically.  The next
        operation re-realises the state and pays one host→device transfer.
        """
        self._state_cache = None

    def _read(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Conductances as seen by one read operation (read noise from ``rng``)."""
        g_plus = self.device.apply_read_noise(self.g_plus, rng)
        g_minus = self.device.apply_read_noise(self.g_minus, rng)
        return g_plus, g_minus

    def _wire_droop(self, g_sum: np.ndarray) -> Optional[np.ndarray]:
        """Per-cell voltage-droop factor of the 2-D IR-drop model, or ``None``.

        ``g_sum = G+ + G-`` is one read's total conductance, ``(M, N)`` or
        with leading batch axes (one plane per realised row).  With
        ``wire_resistance_ohm = R`` per unit cell, the cell at grid position
        ``(i, j)`` sees its drive voltage attenuated by the column wire
        feeding it (``i + 1`` cells deep, loaded by the column's total
        conductance) and its current attenuated along the row wire
        collecting it (``j + 1`` cells long, loaded by the row's total
        conductance):

        ``droop[i, j] = 1 / (1 + R * (G_col[j] * (i+1) + G_row[i] * (j+1)))``

        Both loads and both distances scale with the *physical* array shape,
        so sharding a layer across smaller tiles shrinks the droop
        quadratically.  Returns ``None`` when ``R == 0`` so the default
        configuration skips the multiply entirely (bitwise old behaviour).
        """
        resistance = self.nonidealities.wire_resistance_ohm
        if resistance == 0:
            return None
        column_g = g_sum.sum(axis=-2)
        row_g = g_sum.sum(axis=-1)
        row_depth = np.arange(1, g_sum.shape[-2] + 1, dtype=float)
        col_length = np.arange(1, g_sum.shape[-1] + 1, dtype=float)
        droop = column_g[..., np.newaxis, :] * row_depth[:, np.newaxis]
        droop += row_g[..., :, np.newaxis] * col_length[np.newaxis, :]
        droop *= resistance
        droop += 1.0
        return np.divide(1.0, droop, out=droop)

    def _effective(
        self, g_plus: np.ndarray, g_minus: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """IR-drop-attenuated differential matrix and column sums of one read.

        The single effective-state computation behind both the cached state
        and the seeded realisations; a leading batch axis on ``g_plus`` /
        ``g_minus`` realises one state per row (reductions run over the last
        two axes, so each plane gets the bits of a one-read call).
        """
        g_diff = g_plus - g_minus
        g_sum = g_plus + g_minus
        droop = self._wire_droop(g_sum)
        if droop is not None:
            g_diff *= droop
            g_sum *= droop
        return g_diff, g_sum.sum(axis=-2)

    def _state(self, g_plus: np.ndarray, g_minus: np.ndarray) -> _EffectiveState:
        """One realised read as host state plus its device-resident operands.

        One host->device transfer per realization; with a deterministic
        device the state is cached, so the operands stay device-resident
        until program()/invalidate_state_cache() and every query pays only
        the batch transfer.  On numpy/float64 asarray is a no-copy view.
        """
        effective, column_sums = self._effective(g_plus, g_minus)
        return _EffectiveState(
            self.g_plus,
            self.g_minus,
            effective,
            column_sums,
            self.backend.asarray(effective, self._dtype),
            self.backend.asarray(column_sums, self._dtype),
        )

    def _realize_state(self) -> _EffectiveState:
        """The cached state of a read-noise-free array, realised on a miss.

        The cache is reused until ``g_plus`` / ``g_minus`` change; a miss
        counts one realization.
        """
        cache = self._state_cache
        if (
            cache is None
            or cache.g_plus is not self.g_plus
            or cache.g_minus is not self.g_minus
        ):
            cache = self._state_cache = self._state(*self._read(self._rng))
            self._n_realizations += 1
        return cache

    def _validate_batch(self, voltages: np.ndarray) -> Tuple[np.ndarray, bool]:
        voltages = np.asarray(voltages, dtype=float)
        single = voltages.ndim == 1
        batch = np.atleast_2d(voltages)
        if batch.shape[1] != self.n_columns:
            raise ValueError(
                f"expected {self.n_columns} input voltages, got {batch.shape[1]}"
            )
        return batch, single

    def _rail_factors(self, seeds: Optional[np.ndarray], n_rows: int) -> np.ndarray:
        """Multiplicative rail measurement-noise factors, one per row.

        Seeded rows draw from their own ``(seed, noise_tag)`` streams;
        unseeded calls draw from the array's generator.  Either way the
        factors are host numpy, shipped to the device for the multiply.
        """
        noise = self.nonidealities.current_measurement_noise
        if seeds is not None:
            return seeded_noise_factors(
                seeds, _ARRAY_DOMAIN, self.noise_tag, _RAIL_CHANNEL, std=noise
            )
        return 1.0 + self._rng.normal(0.0, noise, size=(n_rows,))

    def _realize_seeded(
        self, batch: np.ndarray, seeds: np.ndarray, *, want_outputs: bool, want_totals: bool
    ):
        """Outputs and totals of a noisy array, one seeded realization per row.

        Row ``i`` reads the array through its own ``(seeds[i], noise_tag,
        read channel)`` stream: one ``(2, M, N)`` draw of G+ then G-
        deviations, the same bits as the two ``apply_read_noise`` calls of
        an unbatched read.  Rows are realised together, a chunk at a time
        under ``_REALIZATION_CHUNK_BYTES``: one in-place read-noise pass,
        one batched effective state and one stacked ``np.matmul`` per chunk.
        Stacked matmul runs per plane the same gemv / dot as ``effective @
        row`` and ``row @ column_sums`` (einsum would not), so each row is
        bitwise what a one-row call computes.
        """
        n_rows, n_columns = self.shape
        conductances = np.stack([self.g_plus, self.g_minus])
        read_noise = self.device.read_noise
        outputs = np.empty((len(batch), n_rows)) if want_outputs else None
        totals = np.empty(len(batch)) if want_totals else None
        row_bytes = _PLANES_PER_REALIZATION * conductances[0].nbytes
        step = max(1, _REALIZATION_CHUNK_BYTES // row_bytes)
        for start in range(0, len(batch), step):
            rows = batch[start : start + step]
            deviations = np.empty((len(rows), 2, n_rows, n_columns))
            for j, seed in enumerate(seeds[start : start + step]):
                rng = sample_stream(seed, _ARRAY_DOMAIN, self.noise_tag, _READ_CHANNEL)
                rng.standard_normal(out=deviations[j])
            # normal(0, s) draws 0 + s * z per element: the same bits once
            # perturb_read adds the 1.
            deviations *= read_noise
            reads = self.device.perturb_read(conductances, deviations)
            effective, column_sums = self._effective(reads[:, 0], reads[:, 1])
            stop = start + len(rows)
            if want_outputs:
                outputs[start:stop] = np.matmul(effective, rows[:, :, np.newaxis])[:, :, 0]
            if want_totals:
                totals[start:stop] = np.matmul(
                    rows[:, np.newaxis, :], column_sums[:, :, np.newaxis]
                )[:, 0, 0]
            # Free this chunk before the next one allocates its read.
            del deviations, reads, effective, column_sums
        return outputs, totals

    # ------------------------------------------------------------ operations

    def _traverse(
        self, voltages, sample_seeds, *, want_outputs: bool, want_totals: bool
    ):
        """One array traversal behind all three public operations.

        Returns ``(outputs (B, M) | None, totals (B,) | None, single)``.
        Without ``sample_seeds`` noise comes from the array's own generator.
        With them every stochastic effect — read-noise realizations and rail
        measurement noise — is drawn from a stream derived from
        ``(row seed, noise_tag, channel)``, making row ``i``'s observables a
        pure function of ``(batch[i], sample_seeds[i])``: independent of
        batch composition and of any previous operation.  Read-noise-free
        arrays reuse the cached effective state on both paths.
        """
        batch, single = self._validate_batch(voltages)
        seeds = None
        if sample_seeds is not None:
            seeds = validate_seeds(sample_seeds, len(batch), name="sample_seeds")
        state = self.count_traversal(len(batch), seeded=seeds is not None)
        noisy_rail = want_totals and self.nonidealities.current_measurement_noise > 0
        if state is None and seeds is not None:
            # Per-row seeded realizations are host-side physics (fresh noisy
            # conductances per row); their rail noise stays host-side too.
            outputs, totals = self._realize_seeded(
                batch, seeds, want_outputs=want_outputs, want_totals=want_totals
            )
            if noisy_rail:
                totals = totals * self._rail_factors(seeds, len(batch))
            return outputs, totals, single
        if state is None:
            state = self._state(*self._read(self._rng))
        backend = self.backend
        vb = backend.asarray(batch, self._dtype)
        outputs = totals = None
        if seeds is not None or self.batch_invariant:
            # einsum, not BLAS matmul: its per-row reduction order does not
            # depend on the batch size, so a row's result is bitwise the same
            # whether it is computed alone or inside a coalesced batch (BLAS
            # gemm/gemv pick different kernels per shape and break that).
            if want_outputs:
                outputs = backend.einsum("ij,kj->ik", vb, state.effective_dev)
            if want_totals:
                totals = backend.einsum("ij,j->i", vb, state.column_sums_dev)
        else:
            if want_outputs:
                outputs = backend.matmul(vb, state.effective_dev.T)
            if want_totals:
                totals = backend.matmul(vb, state.column_sums_dev)
        if noisy_rail:
            factors = self._rail_factors(seeds, len(batch))
            totals = totals * backend.asarray(factors, self._dtype)
        if want_outputs:
            outputs = backend.to_numpy(outputs)
        if want_totals:
            totals = backend.to_numpy(totals)
        return outputs, totals, single

    def matvec(
        self, voltages: np.ndarray, *, sample_seeds=None
    ) -> np.ndarray:
        """Differential crossbar output currents for a batch of input voltages.

        Parameters
        ----------
        voltages:
            ``(N,)`` or ``(B, N)`` input voltage vector(s).
        sample_seeds:
            Optional per-row noise seeds (see :meth:`_traverse`); the
            default draws from the array's own generator.

        Returns
        -------
        np.ndarray
            Output currents ``(M,)`` or ``(B, M)``.
        """
        currents, _, single = self._traverse(
            voltages, sample_seeds, want_outputs=True, want_totals=False
        )
        return currents[0] if single else currents

    def total_current(
        self, voltages: np.ndarray, *, sample_seeds=None
    ) -> np.ndarray:
        """Total steady-state current drawn for each input vector (Eq. 5).

        This is the paper's "power information": ``i_total = Σ_j v_j G_j``
        with ``G_j`` the per-column conductance sum, plus optional measurement
        noise (drawn per row from ``sample_seeds`` streams when given).
        """
        _, currents, single = self._traverse(
            voltages, sample_seeds, want_outputs=False, want_totals=True
        )
        return float(currents[0]) if single else currents

    def matvec_with_current(
        self, voltages: np.ndarray, *, sample_seeds=None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fused MVM + total current from a *single* conductance realization.

        Equivalent to calling :meth:`matvec` and :meth:`total_current` on the
        same inputs, except that both observables are derived from one read —
        one array traversal, and (with read noise enabled) one shared noise
        draw, so the outputs and the power channel are physically consistent.
        With ``sample_seeds`` the noise is keyed per row instead (each row's
        observables then come from its own seeded realization), which is what
        makes coalesced service batches bit-identical to per-request queries.

        Returns
        -------
        (output_currents, total_currents):
            ``(M,)`` and ``float`` for a single vector, ``(B, M)`` and
            ``(B,)`` for a batch.
        """
        outputs, totals, single = self._traverse(
            voltages, sample_seeds, want_outputs=True, want_totals=True
        )
        if single:
            return outputs[0], float(totals[0])
        return outputs, totals

    def static_power(self, voltages: np.ndarray, *, supply_voltage: float = 1.0) -> np.ndarray:
        """Dissipated power ``Σ_j v_j^2 G_j`` (or ``Vdd * i_total`` when driven at Vdd)."""
        voltages = np.asarray(voltages, dtype=float)
        single = voltages.ndim == 1
        batch = np.atleast_2d(voltages)
        column_sums = self.column_conductance_sums
        power = (batch**2) @ column_sums * float(supply_voltage)
        return float(power[0]) if single else power

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CrossbarArray(shape={self.shape}, device={self.device.name!r}, "
            f"scheme={self.mapping.scheme.value!r}, ideal={self.nonidealities.is_ideal})"
        )
