"""Pluggable array-API compute backends for the hot-path kernels.

Every analogue hot-path operation in the engine — the matmul/einsum products
on the cached effective state, the per-element noise multiplies, the clip and
reduction helpers — is expressed against a tiny :class:`ArrayBackend`
protocol instead of :mod:`numpy` directly.  The numpy backend is the
always-available reference; ``torch`` and ``cupy`` backends are detected at
import time and slot in without touching tiles, attacks, sweeps, or the
service, so everything downstream (service QPS, sweep grids, figure
pipelines) inherits the device speedup.

Design rules (per the repo's lean-on-battle-tested-primitives ADR):

* **numpy is the semantics oracle.**  The numpy backend performs the *exact*
  operations the pre-backend kernels performed — ``asarray`` with a matching
  dtype is a no-copy view, ``matmul`` is the same BLAS call — so the default
  configuration is bit-identical to the historical engine.
* **Seeds stay host-side.**  All seeded noise (counter-mode splitmix64 per-row
  seeds, the stateless :func:`repro.utils.rng.sample_stream` realizations) is
  generated on the host and shipped to the device via :meth:`asarray`; a
  backend never owns an RNG.  Within any single backend the seeded path is
  therefore a pure function of ``(inputs, seeds)`` — the batch-invariance
  contract the async service relies on.
* **Boundary conversion.**  Public engine methods accept and return host
  numpy arrays (:meth:`to_numpy` at the boundary); only the cached effective-
  state operands are device-resident, transferred once per program/invalidate
  rather than per query.

Optional backends are *probed* cheaply (``importlib.util.find_spec``) and
imported lazily on first use; machines without torch/cupy simply don't list
them.  Requesting an absent backend raises :class:`BackendUnavailableError`
with install guidance.
"""

from __future__ import annotations

import importlib
import importlib.util
from typing import Dict, Optional, Tuple, Union

import numpy as np

#: Names accepted by :func:`get_backend`, in ``"auto"`` preference order
#: (fastest-first: a GPU backend beats the host reference when present).
BACKEND_NAMES: Tuple[str, ...] = ("cupy", "torch", "numpy")

#: dtype specs the engine supports: float64 is the bit-exact reference,
#: float32 the documented fast path (~1e-6 relative tolerance).
SUPPORTED_DTYPES: Tuple[str, ...] = ("float32", "float64")


class BackendUnavailableError(RuntimeError):
    """Raised when a requested compute backend is not importable."""


def _module_available(module: str) -> bool:
    """Cheaply probe importability without paying the import itself."""
    try:
        return importlib.util.find_spec(module) is not None
    except (ImportError, ValueError):  # pragma: no cover - exotic loaders
        return False


class ArrayBackend:
    """The ~dozen ops the engine needs, numpy reference implementation.

    Subclasses override the namespace hooks for torch/cupy; everything the
    engine calls goes through this interface so a backend swap never touches
    engine logic.  Instances are stateless (no RNG, no per-array state) and
    shared as singletons via :func:`get_backend`.
    """

    name = "numpy"
    #: Device the operands live on ("cpu", "cuda", ...).  Informational.
    device = "cpu"

    # ------------------------------------------------------------- dtypes

    def dtype(self, spec: Union[str, np.dtype]):
        """Canonical dtype object for a ``"float32"``/``"float64"`` spec."""
        name = np.dtype(spec).name if not isinstance(spec, str) else spec
        if name not in SUPPORTED_DTYPES:
            raise ValueError(
                f"dtype must be one of {SUPPORTED_DTYPES}, got {spec!r}"
            )
        return np.dtype(name)

    def dtype_name(self, dtype) -> str:
        """The ``"float32"``/``"float64"`` name of a backend dtype object."""
        return np.dtype(dtype).name

    # ----------------------------------------------------------- transfer

    def asarray(self, values, dtype=None):
        """Host (or device) values -> device array.  No-copy when possible."""
        return np.asarray(values, dtype=dtype)

    def to_numpy(self, values) -> np.ndarray:
        """Device array -> host :class:`numpy.ndarray`.  No-copy on host."""
        return np.asarray(values)

    # ------------------------------------------------------------ kernels

    def matmul(self, a, b):
        """Matrix product (the BLAS fast path for unseeded queries)."""
        return np.matmul(a, b)

    def einsum(self, subscripts: str, *operands):
        """Fixed-reduction-order contraction (the batch-invariant kernels)."""
        return np.einsum(subscripts, *operands)

    def clip(self, values, low, high):
        return np.clip(values, low, high)

    def concatenate(self, arrays, axis: int = 0):
        return np.concatenate(arrays, axis=axis)

    def stack(self, arrays, axis: int = 0):
        return np.stack(arrays, axis=axis)

    def sum(self, values, axis: Optional[int] = None):
        return np.sum(values, axis=axis)

    def zeros(self, shape, dtype=None):
        return np.zeros(shape, dtype=dtype)

    # -------------------------------------------------------------- timing

    def synchronize(self) -> None:
        """Block until queued device work completes (no-op on the host)."""

    def __reduce__(self):
        """Pickle a registry singleton by name, any other instance by value.

        The receiving process then resolves its own singleton through
        :func:`get_backend` instead of unpickling module handles, so an
        array shipped to a worker keeps ``backend is get_backend(name)``.
        """
        if _INSTANCES.get(self.name) is self:
            return get_backend, (self.name,)
        return object.__reduce__(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r}, device={self.device!r})"


class TorchBackend(ArrayBackend):
    """PyTorch backend (CUDA when available, CPU otherwise)."""

    name = "torch"

    def __init__(self):
        import torch

        self._torch = torch
        self.device = "cuda" if torch.cuda.is_available() else "cpu"
        self._dtypes = {"float32": torch.float32, "float64": torch.float64}

    def dtype(self, spec):
        if not isinstance(spec, str):
            for name, value in self._dtypes.items():
                if value == spec:
                    return value
            spec = np.dtype(spec).name
        if spec not in self._dtypes:
            raise ValueError(
                f"dtype must be one of {SUPPORTED_DTYPES}, got {spec!r}"
            )
        return self._dtypes[spec]

    def dtype_name(self, dtype) -> str:
        for name, value in self._dtypes.items():
            if value == dtype:
                return name
        return str(dtype)

    def asarray(self, values, dtype=None):
        torch = self._torch
        if isinstance(values, torch.Tensor):
            return values.to(device=self.device, dtype=dtype)
        return torch.asarray(
            np.ascontiguousarray(values), dtype=dtype, device=self.device
        )

    def to_numpy(self, values) -> np.ndarray:
        return values.detach().cpu().numpy()

    def matmul(self, a, b):
        return self._torch.matmul(a, b)

    def einsum(self, subscripts, *operands):
        return self._torch.einsum(subscripts, *operands)

    def clip(self, values, low, high):
        return self._torch.clamp(values, min=low, max=high)

    def concatenate(self, arrays, axis: int = 0):
        return self._torch.cat(list(arrays), dim=axis)

    def stack(self, arrays, axis: int = 0):
        return self._torch.stack(list(arrays), dim=axis)

    def sum(self, values, axis: Optional[int] = None):
        if axis is None:
            return self._torch.sum(values)
        return self._torch.sum(values, dim=axis)

    def zeros(self, shape, dtype=None):
        return self._torch.zeros(shape, dtype=dtype, device=self.device)

    def synchronize(self) -> None:
        if self.device == "cuda":  # pragma: no cover - needs CUDA hardware
            self._torch.cuda.synchronize()


class CupyBackend(ArrayBackend):
    """CuPy backend (always CUDA)."""

    name = "cupy"
    device = "cuda"

    def __init__(self):  # pragma: no cover - needs CUDA hardware
        import cupy

        self._cupy = cupy

    # All kernels below are exercised only on CUDA machines.
    # pragma: no cover start
    def asarray(self, values, dtype=None):  # pragma: no cover
        return self._cupy.asarray(values, dtype=dtype)

    def to_numpy(self, values) -> np.ndarray:  # pragma: no cover
        return self._cupy.asnumpy(values)

    def matmul(self, a, b):  # pragma: no cover
        return self._cupy.matmul(a, b)

    def einsum(self, subscripts, *operands):  # pragma: no cover
        return self._cupy.einsum(subscripts, *operands)

    def clip(self, values, low, high):  # pragma: no cover
        return self._cupy.clip(values, low, high)

    def concatenate(self, arrays, axis: int = 0):  # pragma: no cover
        return self._cupy.concatenate(list(arrays), axis=axis)

    def stack(self, arrays, axis: int = 0):  # pragma: no cover
        return self._cupy.stack(list(arrays), axis=axis)

    def sum(self, values, axis: Optional[int] = None):  # pragma: no cover
        return self._cupy.sum(values, axis=axis)

    def zeros(self, shape, dtype=None):  # pragma: no cover
        return self._cupy.zeros(shape, dtype=dtype)

    def dtype(self, spec):  # pragma: no cover
        name = spec if isinstance(spec, str) else np.dtype(spec).name
        if name not in SUPPORTED_DTYPES:
            raise ValueError(
                f"dtype must be one of {SUPPORTED_DTYPES}, got {spec!r}"
            )
        return self._cupy.dtype(name)

    def synchronize(self) -> None:  # pragma: no cover
        self._cupy.cuda.get_current_stream().synchronize()


_BACKEND_CLASSES = {
    "numpy": ArrayBackend,
    "torch": TorchBackend,
    "cupy": CupyBackend,
}

#: Resolved singletons, one per backend name.
_INSTANCES: Dict[str, ArrayBackend] = {}

#: Import-time availability probe results (cheap find_spec, cached).
_AVAILABLE: Dict[str, bool] = {
    "numpy": True,
    "torch": _module_available("torch"),
    "cupy": _module_available("cupy"),
}


def backend_available(name: str) -> bool:
    """True when ``name`` can be resolved on this machine."""
    return _AVAILABLE.get(name, False)


def available_backends() -> Tuple[str, ...]:
    """Backend names usable on this machine, ``"auto"`` preference order."""
    return tuple(name for name in BACKEND_NAMES if _AVAILABLE[name])


def get_backend(
    spec: Union[None, str, ArrayBackend] = None
) -> ArrayBackend:
    """Resolve a backend spec to a shared :class:`ArrayBackend` instance.

    Parameters
    ----------
    spec:
        ``None`` or ``"numpy"`` for the host reference, ``"torch"``/``"cupy"``
        for an optional accelerator backend, ``"auto"`` for the best
        available one (cupy > torch > numpy), or an existing
        :class:`ArrayBackend` instance (returned unchanged).

    Raises
    ------
    BackendUnavailableError
        When a named optional backend is not importable on this machine.
    ValueError
        On unknown backend names.
    """
    if isinstance(spec, ArrayBackend):
        return spec
    if spec is None:
        spec = "numpy"
    name = str(spec).lower()
    if name == "auto":
        name = available_backends()[0]
    if name not in _BACKEND_CLASSES:
        raise ValueError(
            f"unknown backend {spec!r}; expected one of "
            f"{BACKEND_NAMES + ('auto',)}"
        )
    if not _AVAILABLE[name]:
        raise BackendUnavailableError(
            f"backend {name!r} is not installed on this machine "
            f"(available: {available_backends()}); install the "
            f"[{name}] optional extra to enable it"
        )
    if name not in _INSTANCES:
        try:
            _INSTANCES[name] = _BACKEND_CLASSES[name]()
        except Exception as exc:  # import succeeded in probe but failed live
            _AVAILABLE[name] = False
            raise BackendUnavailableError(
                f"backend {name!r} failed to initialise: {exc}"
            ) from exc
    return _INSTANCES[name]
