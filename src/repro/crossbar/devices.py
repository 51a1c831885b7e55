"""NVM device models.

A device model captures the conductance range and stochastic behaviour of one
NVM technology (ReRAM, PCM, ...).  The paper's analysis assumes ideal ohmic
devices; :data:`IDEAL_DEVICE` reproduces that exactly (conductance equals the
normalised weight magnitude, no noise), while :data:`RERAM_DEVICE` and
:data:`PCM_DEVICE` provide representative physical parameter sets for the
non-ideality studies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class NVMDeviceModel:
    """Parameters of one NVM device technology.

    Attributes
    ----------
    name:
        Technology label.
    g_min / g_max:
        Minimum ("off") and maximum ("on") programmable conductance in siemens.
    programming_noise:
        Relative standard deviation of the conductance programming error
        (lognormal-style multiplicative noise), applied once when the weight
        matrix is written to the array.
    read_noise:
        Relative standard deviation of per-read conductance fluctuation.
    n_levels:
        Number of discrete programmable conductance levels, or ``None`` for a
        continuously programmable device.
    """

    name: str
    g_min: float
    g_max: float
    programming_noise: float = 0.0
    read_noise: float = 0.0
    n_levels: Optional[int] = None

    def __post_init__(self) -> None:
        if self.g_min < 0:
            raise ValueError(f"g_min must be >= 0, got {self.g_min}")
        if self.g_max <= self.g_min:
            raise ValueError(
                f"g_max ({self.g_max}) must exceed g_min ({self.g_min})"
            )
        if self.programming_noise < 0:
            raise ValueError(f"programming_noise must be >= 0, got {self.programming_noise}")
        if self.read_noise < 0:
            raise ValueError(f"read_noise must be >= 0, got {self.read_noise}")
        if self.n_levels is not None and self.n_levels < 2:
            raise ValueError(f"n_levels must be >= 2, got {self.n_levels}")

    @property
    def conductance_range(self) -> float:
        """Programmable conductance span ``g_max - g_min``."""
        return self.g_max - self.g_min

    @property
    def on_off_ratio(self) -> float:
        """``g_max / g_min`` (infinite for an ideal device with g_min = 0)."""
        if self.g_min == 0:
            return float("inf")
        return self.g_max / self.g_min

    def quantize(self, conductances: np.ndarray) -> np.ndarray:
        """Snap conductances to the nearest programmable level (if discrete)."""
        conductances = np.asarray(conductances, dtype=float)
        if self.n_levels is None:
            return np.clip(conductances, self.g_min, self.g_max)
        levels = np.linspace(self.g_min, self.g_max, self.n_levels)
        clipped = np.clip(conductances, self.g_min, self.g_max)
        indices = np.rint(
            (clipped - self.g_min) / self.conductance_range * (self.n_levels - 1)
        ).astype(int)
        return levels[indices]

    def apply_programming_noise(
        self, conductances: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Apply multiplicative write noise and clip to the valid range."""
        conductances = np.asarray(conductances, dtype=float)
        if self.programming_noise == 0:
            return np.clip(conductances, self.g_min, self.g_max)
        noisy = conductances * (
            1.0 + rng.normal(0.0, self.programming_noise, size=conductances.shape)
        )
        return np.clip(noisy, self.g_min, self.g_max)

    def apply_read_noise(
        self, conductances: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Apply per-read multiplicative fluctuation (not clipped below g_min=0)."""
        conductances = np.asarray(conductances, dtype=float)
        if self.read_noise == 0:
            return conductances
        deviations = rng.normal(0.0, self.read_noise, size=conductances.shape)
        return self.perturb_read(conductances, deviations)

    def perturb_read(self, conductances: np.ndarray, deviations: np.ndarray) -> np.ndarray:
        """``clip(conductances * (1 + deviations), 0, g_max)``, built in ``deviations``.

        The read-noise physics of :meth:`apply_read_noise` for deviations
        already drawn, so a batch of seeded reads (``deviations`` with
        leading batch axes, ``conductances`` broadcast against them) is
        realised in place with the same bits as one read at a time.
        """
        deviations += 1.0
        deviations *= conductances
        return np.clip(deviations, 0.0, self.g_max, out=deviations)

    def with_noise(
        self,
        *,
        programming_noise: Optional[float] = None,
        read_noise: Optional[float] = None,
        n_levels: Optional[int] = None,
    ) -> "NVMDeviceModel":
        """Return a copy with modified noise parameters."""
        changes = {}
        if programming_noise is not None:
            changes["programming_noise"] = programming_noise
        if read_noise is not None:
            changes["read_noise"] = read_noise
        if n_levels is not None:
            changes["n_levels"] = n_levels
        return replace(self, **changes)


#: Ideal, normalised device: conductance equals the weight magnitude exactly.
IDEAL_DEVICE = NVMDeviceModel(name="ideal", g_min=0.0, g_max=1.0)

#: Representative HfO2 ReRAM parameters (order-of-magnitude values from the literature).
RERAM_DEVICE = NVMDeviceModel(
    name="reram",
    g_min=1e-6,
    g_max=1e-4,
    programming_noise=0.05,
    read_noise=0.01,
    n_levels=64,
)

#: Representative phase-change-memory parameters.
PCM_DEVICE = NVMDeviceModel(
    name="pcm",
    g_min=5e-7,
    g_max=5e-5,
    programming_noise=0.08,
    read_noise=0.02,
    n_levels=32,
)
