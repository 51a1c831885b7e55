"""Shard programs and the one shard kernel.

A layer is placed on a grid of physical crossbar arrays (see
:class:`~repro.crossbar.tile.CrossbarTile`).  Every shard of that grid is
traversed through :func:`run_shard`, which accepts either the live host
:class:`~repro.crossbar.array.CrossbarArray` or a :class:`ShardProgram`: a
frozen, picklable snapshot of the shard's programmed physics that a worker
process can execute without anything from the host's address space.

* **Conductances** — the shard's ``G+`` / ``G-`` slices of the once-programmed
  full matrix (host numpy, read-only).
* **Mapping slice** — a :class:`~repro.crossbar.mapping.ConductanceMapping`
  with the *full-matrix* ``weight_scale`` pinned, so logical/physical
  conversions agree with the unsharded array.
* **Nonideality parameters** — the dynamic effects (read noise, IR drop,
  measurement noise) each worker re-applies per call.
* **Seed material** — the shard's host-derived integer seed (drawn exactly
  like :func:`~repro.utils.rng.spawn_rngs` would) and its ``noise_tag``, so
  the *seeded* path stays bit-identical no matter where the kernel runs.

Determinism contract: with ``sample_seeds`` given, or with a deterministic
shard (no read noise, no measurement noise), ``run_shard`` on a program is a
pure function of ``(program, voltages, sample_seeds)`` — bitwise identical in
a worker process and on the host.  An *unseeded stochastic* call needs fresh
noise per invocation; the dispatching tile draws a per-call ``rng_seed``
from the host shard's own generator and ships it with the job, keeping the
statefulness host-side (statistically fresh draws, not bitwise equal to the
serial path — which is itself a fresh-draw path).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple, Union

import numpy as np

from repro.backend import ArrayBackend, get_backend
from repro.crossbar.array import CrossbarArray
from repro.crossbar.mapping import ConductanceMapping
from repro.crossbar.nonidealities import NonidealityConfig

__all__ = [
    "NonPicklableShardError",
    "ShardProgram",
    "run_shard",
]


class NonPicklableShardError(TypeError):
    """Shard state cannot cross a process boundary.

    Raised by :meth:`ShardProgram.require_picklable` when a shard carries
    backend state that is meaningless (or unserialisable) in another address
    space — e.g. device-resident cupy operands, whose CUDA context belongs to
    the host process.  Use a ``thread`` or ``serial`` runner for such
    backends.
    """


def _portable_backend(
    backend: Optional[ArrayBackend],
) -> Union[None, str, ArrayBackend]:
    """Collapse a registry-singleton backend to its name for shipping.

    The canonical backends are process-wide singletons
    (:func:`~repro.backend.get_backend`); shipping the *name* lets each
    worker resolve its own local instance instead of pickling module
    handles.  A non-registry instance (tests, custom backends) is carried by
    value and must survive pickling itself.
    """
    if backend is None:
        return None
    name = getattr(backend, "name", None)
    if isinstance(name, str):
        try:
            if get_backend(name) is backend:
                return name
        except Exception:
            pass
    return backend


@dataclass(frozen=True)
class ShardProgram:
    """Frozen, picklable snapshot of one shard's programmed physics.

    Attributes
    ----------
    g_plus, g_minus:
        The shard's slices of the once-programmed conductance matrices
        (copied, host numpy, marked read-only).
    mapping:
        Conductance mapping with the full-matrix ``weight_scale`` pinned.
    nonidealities:
        Dynamic non-ideal effects re-applied by the executing kernel.
    reference_weights:
        The logical weight slice the shard implements (for
        ``effective_weights`` parity with the host array).
    noise_tag:
        The physical array's stream tag — seeded noise drawn in a worker is
        keyed identically to the host array's.
    seed:
        Host-derived integer seed material for the shard's own generator
        (``np.random.default_rng(seed)`` reconstructs the host shard's RNG
        start state bit-exactly).
    backend:
        ``None``/backend name for registry singletons (resolved worker-side)
        or an :class:`~repro.backend.ArrayBackend` instance carried by value.
    dtype, batch_invariant:
        Compute-dtype and kernel-family knobs, forwarded verbatim.
    """

    g_plus: np.ndarray
    g_minus: np.ndarray
    mapping: ConductanceMapping
    nonidealities: NonidealityConfig = field(default_factory=NonidealityConfig)
    reference_weights: Optional[np.ndarray] = None
    noise_tag: int = 0
    seed: int = 0
    backend: Union[None, str, ArrayBackend] = None
    dtype: str = "float64"
    batch_invariant: bool = False

    def __post_init__(self) -> None:
        if self.mapping.weight_scale is None:
            raise ValueError(
                "ShardProgram requires a mapping with an explicit "
                "weight_scale (the scale resolved on the full weight matrix)"
            )
        for name in ("g_plus", "g_minus", "reference_weights"):
            value = getattr(self, name)
            if value is None:
                continue
            frozen = np.array(value, dtype=float, copy=True)
            frozen.setflags(write=False)
            object.__setattr__(self, name, frozen)
        if self.g_plus.shape != self.g_minus.shape:
            raise ValueError(
                f"g_plus shape {self.g_plus.shape} != "
                f"g_minus shape {self.g_minus.shape}"
            )
        object.__setattr__(self, "noise_tag", int(self.noise_tag))
        object.__setattr__(self, "seed", int(self.seed))

    # ------------------------------------------------------------ properties

    @property
    def shape(self) -> Tuple[int, int]:
        """(rows, columns) of the shard."""
        return self.g_plus.shape

    @property
    def is_deterministic(self) -> bool:
        """True when executing the program draws nothing from its generator.

        Read noise and measurement noise are the only per-call stochastic
        effects on the compute path; without them (or with explicit
        ``sample_seeds``) the kernels are pure functions of their arguments.
        """
        return (
            self.mapping.device.read_noise == 0.0
            and self.nonidealities.current_measurement_noise == 0.0
        )

    # ---------------------------------------------------------- construction

    @classmethod
    def from_array(cls, array: CrossbarArray, *, seed: int = 0) -> "ShardProgram":
        """Snapshot a programmed host array into a shard program.

        A host array whose mapping left ``weight_scale`` to be resolved on
        the programmed matrix (the unsharded single-tile path) gets the
        resolved value pinned here, so the snapshot is self-contained.
        """
        mapping = array.mapping
        if mapping.weight_scale is None and array._reference_weights is not None:
            mapping = replace(
                mapping,
                weight_scale=mapping.resolve_weight_scale(
                    array._reference_weights
                ),
            )
        return cls(
            g_plus=array.g_plus,
            g_minus=array.g_minus,
            mapping=mapping,
            nonidealities=array.nonidealities,
            reference_weights=array._reference_weights,
            noise_tag=array.noise_tag,
            seed=seed,
            backend=_portable_backend(array.backend),
            dtype=array.dtype,
            batch_invariant=array.batch_invariant,
        )

    # ----------------------------------------------------------- capability

    def require_picklable(self) -> None:
        """Raise :class:`NonPicklableShardError` unless this program can ship.

        Device-resident backends are rejected by name even though the
        *program* (host conductances + a backend name) would technically
        pickle: rebuilding a CUDA context per kernel call in a forked worker
        is not a supported execution model.  Everything else is probed with a
        real ``pickle.dumps``.
        """
        name = self.backend if isinstance(self.backend, str) else getattr(
            self.backend, "name", None
        )
        if name == "cupy":
            raise NonPicklableShardError(
                "shard uses the cupy backend (device-resident operands); "
                "process-mode shard execution requires host-resident state — "
                "use a 'thread' or 'serial' runner"
            )
        try:
            pickle.dumps(self)
        except Exception as exc:
            raise NonPicklableShardError(
                f"shard program cannot be pickled for process-mode "
                f"execution: {exc}; use a 'thread' or 'serial' runner"
            ) from exc

    # ----------------------------------------------------------- execution

    def materialize(self, random_state=None) -> CrossbarArray:
        """Rebuild the live :class:`CrossbarArray` this program describes.

        ``random_state`` defaults to ``np.random.default_rng(self.seed)`` —
        the exact generator the host shard started from — so a freshly
        materialised array is indistinguishable from the host's at build
        time.
        """
        if random_state is None:
            random_state = np.random.default_rng(self.seed)
        array = CrossbarArray.from_conductances(
            self.g_plus,
            self.g_minus,
            mapping=self.mapping,
            nonidealities=self.nonidealities,
            reference_weights=self.reference_weights,
            random_state=random_state,
            backend=get_backend(self.backend)
            if isinstance(self.backend, str)
            else self.backend,
            dtype=self.dtype,
            batch_invariant=self.batch_invariant,
        )
        array.noise_tag = self.noise_tag
        return array


#: ``want`` -> the :class:`CrossbarArray` entry point that yields it.  Looked
#: up by name at call time, so the fused traversal always enters
#: :meth:`CrossbarArray.matvec_with_current` as bound on the class.
_ENTRY_POINTS = {
    "outputs": "matvec",
    "totals": "total_current",
    "both": "matvec_with_current",
}


def run_shard(
    target: Union[CrossbarArray, ShardProgram],
    voltages,
    sample_seeds=None,
    rng_seed=None,
    *,
    want: str = "both",
):
    """The one shard kernel: traverse a live array or a shipped program once.

    ``want`` selects the observables: ``"outputs"`` (output currents, Eq. 3),
    ``"totals"`` (supply current, Eq. 5) or ``"both"`` (the fused
    ``(outputs, total_current)`` pair from one realization).  A
    :class:`ShardProgram` is materialised first, so a worker process needs
    nothing from the host's address space; with ``sample_seeds`` (or a
    deterministic program) the result is then a pure function of the
    arguments, bitwise identical to the host path.  ``rng_seed`` seeds the
    materialised array's generator for this one call (drawn host-side by
    the dispatcher for unseeded stochastic programs).
    """
    if isinstance(target, ShardProgram):
        rng = None if rng_seed is None else np.random.default_rng(int(rng_seed))
        target = target.materialize(random_state=rng)
    return getattr(target, _ENTRY_POINTS[want])(voltages, sample_seeds=sample_seeds)
