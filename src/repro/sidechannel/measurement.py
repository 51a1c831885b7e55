"""Attacker-side power measurement of a crossbar target.

:class:`PowerMeasurement` wraps any object exposing ``total_current(inputs)``
(a :class:`~repro.crossbar.tile.CrossbarTile` or
:class:`~repro.crossbar.accelerator.CrossbarAccelerator`) and models the
attacker's oscilloscope: additive/relative measurement noise, averaging over
repeated reads, and accounting of how many queries have been spent — the
quantity the paper trades off against attack efficacy.
"""

from __future__ import annotations

import inspect
from typing import Optional, Protocol, Tuple, Union

import numpy as np

from repro.utils.rng import (
    RandomState,
    as_rng,
    fold_seed,
    sample_stream,
    validate_seeds,
)
from repro.utils.validation import check_non_negative, check_positive_int

#: Stream-path domain tags for the instrument's own noise and for the
#: per-repeat sub-seeds handed to the target when averaging.
_INSTRUMENT_DOMAIN = 3
_INSTRUMENT_CHANNEL = 0
_AVERAGE_DOMAIN = 5


class QueryBudgetExceeded(RuntimeError):
    """Raised when a measurement would exceed the configured query budget."""


class SupportsTotalCurrent(Protocol):
    """Anything that can report a total current for input vectors."""

    def total_current(self, inputs: np.ndarray) -> np.ndarray:  # pragma: no cover
        ...


class PowerMeasurement:
    """The attacker's view of the crossbar power rail.

    Parameters
    ----------
    target:
        Object exposing ``total_current(inputs)``.
    noise_std:
        Standard deviation of additive Gaussian measurement noise, expressed
        relative to *each measured current's own* magnitude (e.g. ``0.01``
        = 1% noise; zero readings fall back to unit scale).  The scale is
        deliberately per element, never a batch aggregate, so splitting or
        merging a batch cannot change any individual reading's noise level.
        This is the attacker's instrument noise, independent of any hardware
        non-ideality configured on the target.
    n_averages:
        Number of repeated reads averaged per query (averaging reduces the
        effective noise by ``sqrt(n_averages)`` but costs that many queries).
    quantization_bits:
        Resolution of the attacker's acquisition ADC, in bits; ``None``
        (default) models an ideal continuous instrument.  Note this quantizes
        the *side channel*, independently of the accelerator's own output
        ADC, which digitises functional outputs only — the supply rail an
        attacker taps is analogue.
    range_hint:
        How the acquisition ADC's vertical range is set; three modes:

        * ``None`` (default) — **auto-range per acquisition**: every
          :meth:`measure` call snaps its readings to ``2**bits`` uniform
          levels spanning that batch's observed range (noise included), like
          an oscilloscope whose vertical scale is fit to the trace.  A batch
          with zero dynamic range (including any single-sample read) passes
          through unchanged.  This is standalone-scope behaviour: a reading's
          quantized value depends on its batch-mates, so it is *not*
          batch-composition-invariant.
        * ``(low, high)`` — **fixed range**: every acquisition quantizes
          against the given span; out-of-range readings saturate at the rail
          values, exactly like a real ADC.  Batch-composition-invariant —
          the mode the coalescing query service uses.
        * ``"calibrate"`` — the first acquisition's observed range is frozen
          and reused by every subsequent one (auto-range once, then fixed).
          Note the calibration acquisition itself spans *its* batch, so
          batch invariance only holds for acquisitions after it; a service
          requiring bit-identity from the first request should calibrate on
          a warm-up acquisition, or use an explicit ``(low, high)``.
    query_budget:
        Optional hard cap on the number of queries; measurements that would
        exceed it raise :class:`QueryBudgetExceeded` before touching the
        target, and queries are charged only after a successful read.
    random_state:
        Seed for the measurement noise.
    """

    def __init__(
        self,
        target: SupportsTotalCurrent,
        *,
        noise_std: float = 0.0,
        n_averages: int = 1,
        quantization_bits: Optional[int] = None,
        range_hint: Union[None, str, Tuple[float, float]] = None,
        query_budget: Optional[int] = None,
        random_state: RandomState = None,
    ):
        self.target = target
        self.noise_std = check_non_negative(noise_std, "noise_std")
        self.n_averages = check_positive_int(n_averages, "n_averages")
        if quantization_bits is not None:
            check_positive_int(quantization_bits, "quantization_bits")
        self.quantization_bits = quantization_bits
        self.range_hint = self._validate_range_hint(range_hint)
        self._calibrated_range: Optional[Tuple[float, float]] = None
        if query_budget is not None:
            check_positive_int(query_budget, "query_budget")
        self.query_budget = query_budget
        self._rng = as_rng(random_state)
        self._queries_used = 0
        self._target_accepts_seeds = self._supports_sample_seeds(target)

    @staticmethod
    def _supports_sample_seeds(target) -> bool:
        """Whether ``target.total_current`` takes per-row ``sample_seeds``.

        Decided once from the signature rather than by catching
        :class:`TypeError` around the call — a TypeError raised *inside* a
        seed-capable target must propagate, not silently demote the read to
        the unseeded (batch-composition-dependent) path.
        """
        try:
            parameters = inspect.signature(target.total_current).parameters
        except (TypeError, ValueError):  # builtins without signatures
            return False
        if "sample_seeds" in parameters:
            return True
        return any(
            parameter.kind is inspect.Parameter.VAR_KEYWORD
            for parameter in parameters.values()
        )

    @staticmethod
    def _validate_range_hint(range_hint):
        if range_hint is None:
            return None
        if isinstance(range_hint, str):
            if range_hint != "calibrate":
                raise ValueError(
                    f"range_hint must be None, 'calibrate' or a (low, high) "
                    f"pair, got {range_hint!r}"
                )
            return range_hint
        low, high = (float(value) for value in range_hint)
        if not (np.isfinite(low) and np.isfinite(high)) or high <= low:
            raise ValueError(
                f"range_hint (low, high) must be finite with high > low, "
                f"got ({low}, {high})"
            )
        return (low, high)

    # ----------------------------------------------------------- accounting

    @property
    def queries_used(self) -> int:
        """Total number of (averaged) reads issued so far."""
        return self._queries_used

    @property
    def queries_remaining(self) -> Optional[int]:
        """Remaining budget, or ``None`` when unbounded."""
        if self.query_budget is None:
            return None
        return max(0, self.query_budget - self._queries_used)

    def reset_counter(self) -> None:
        """Reset the query counter (e.g. between experiment repetitions)."""
        self._queries_used = 0

    def _check_budget(self, n_queries: int) -> None:
        if (
            self.query_budget is not None
            and self._queries_used + n_queries > self.query_budget
        ):
            raise QueryBudgetExceeded(
                f"measurement of {n_queries} queries would exceed the budget of "
                f"{self.query_budget} (already used {self._queries_used})"
            )

    # ----------------------------------------------------------- measurement

    def _target_current(self, batch: np.ndarray, seeds, repeat: int) -> np.ndarray:
        """One read of the target, with per-repeat sub-seeds when seeded.

        Targets whose ``total_current`` does not take ``sample_seeds`` (e.g.
        a plain linear stub) are read unseeded: their current is
        deterministic per row, so the shared path is already batch-invariant.
        """
        if seeds is not None and self._target_accepts_seeds:
            if self.n_averages > 1:
                seeds = np.array(
                    [fold_seed(seed, _AVERAGE_DOMAIN, repeat) for seed in seeds],
                    dtype=np.uint64,
                )
            currents = self.target.total_current(batch, sample_seeds=seeds)
        else:
            currents = self.target.total_current(batch)
        return np.atleast_1d(np.asarray(currents, dtype=float))

    def measure(self, inputs: np.ndarray, *, seeds=None) -> np.ndarray:
        """Measure the total current for each input vector.

        Returns a ``(B,)`` array; a single 1-D input returns a scalar.

        ``seeds`` (one ``uint64`` per input row, see
        :func:`~repro.utils.rng.derive_request_seeds`) keys both the target's
        stochastic effects and this instrument's own noise on the row's seed,
        making each reading independent of batch composition — combine with a
        fixed ``range_hint=(low, high)`` (or a ``"calibrate"`` instrument
        whose calibration acquisition already happened) for a fully
        batch-invariant acquisition, as the coalescing query service
        requires.
        """
        inputs = np.asarray(inputs, dtype=float)
        single = inputs.ndim == 1
        batch = np.atleast_2d(inputs)
        if seeds is not None:
            seeds = validate_seeds(seeds, len(batch))
        self._check_budget(len(batch) * self.n_averages)

        readings = np.zeros(len(batch), dtype=float)
        for repeat in range(self.n_averages):
            readings += self._target_current(batch, seeds, repeat)
        readings /= self.n_averages

        if self.noise_std > 0:
            scale = np.abs(readings)
            scale = np.where(scale > 0, scale, 1.0)
            effective_std = self.noise_std * scale / np.sqrt(self.n_averages)
            if seeds is None:
                noise = self._rng.normal(0.0, 1.0, size=readings.shape)
            else:
                noise = np.array(
                    [
                        sample_stream(
                            seed, _INSTRUMENT_DOMAIN, _INSTRUMENT_CHANNEL
                        ).normal()
                        for seed in seeds
                    ]
                )
            readings = readings + effective_std * noise
        readings = self._quantize(readings)
        # Charge only after the target read succeeded: a failing traversal
        # must not consume budget.
        self._queries_used += len(batch) * self.n_averages
        return float(readings[0]) if single else readings

    def _acquisition_range(self, readings: np.ndarray) -> Tuple[float, float]:
        """Resolve the ADC span for one acquisition (see ``range_hint``)."""
        if isinstance(self.range_hint, tuple):
            return self.range_hint
        if self.range_hint == "calibrate":
            if self._calibrated_range is None:
                self._calibrated_range = (
                    float(readings.min()),
                    float(readings.max()),
                )
            return self._calibrated_range
        return float(readings.min()), float(readings.max())

    def _quantize(self, readings: np.ndarray) -> np.ndarray:
        """Snap readings to the acquisition ADC's uniform levels.

        Auto-range mode spans the batch's own min/max; fixed-range and
        calibrated modes quantize against a batch-independent span and
        saturate out-of-range readings at the rails.
        """
        if self.quantization_bits is None:
            return readings
        low, high = self._acquisition_range(readings)
        if high <= low:
            return readings
        steps = 2**self.quantization_bits - 1
        span = high - low
        indices = np.clip(np.rint((readings - low) / span * steps), 0, steps)
        return low + indices * span / steps

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PowerMeasurement(noise_std={self.noise_std}, n_averages={self.n_averages}, "
            f"queries_used={self.queries_used})"
        )
