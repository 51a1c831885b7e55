"""Random-number-generator helpers.

Every stochastic component in the library accepts either an integer seed, a
:class:`numpy.random.Generator`, or ``None``.  :func:`as_rng` normalises all of
those to a ``Generator`` so components never share hidden global state, and
:func:`spawn_rngs` derives independent child generators for multi-run
experiments so that runs are reproducible individually and collectively.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

import numpy as np

#: The union of things accepted wherever a random source is required.
RandomState = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_rng(random_state: RandomState = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``random_state``.

    Parameters
    ----------
    random_state:
        ``None`` for OS entropy, an ``int`` seed, a ``SeedSequence``, or an
        existing ``Generator`` (returned unchanged).
    """
    if isinstance(random_state, np.random.Generator):
        return random_state
    if isinstance(random_state, np.random.SeedSequence):
        return np.random.default_rng(random_state)
    if random_state is None or isinstance(random_state, (int, np.integer)):
        return np.random.default_rng(random_state)
    raise TypeError(
        "random_state must be None, int, SeedSequence or Generator, "
        f"got {type(random_state).__name__}"
    )


def spawn_rngs(random_state: RandomState, count: int) -> list[np.random.Generator]:
    """Derive ``count`` statistically independent generators.

    The derivation is deterministic given ``random_state``: calling this twice
    with the same seed yields identical child streams, which is what the
    multi-seed experiment runner relies on.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(random_state, np.random.Generator):
        # Use the generator itself to produce child seeds deterministically
        # with respect to its current state.
        seeds = random_state.integers(0, 2**63 - 1, size=count)
        return [np.random.default_rng(int(seed)) for seed in seeds]
    seq = (
        random_state
        if isinstance(random_state, np.random.SeedSequence)
        else np.random.SeedSequence(random_state)
    )
    return [np.random.default_rng(child) for child in seq.spawn(count)]


#: Mask folding arbitrary Python ints into the non-negative range
#: :class:`numpy.random.SeedSequence` accepts as one entropy word.
_UINT64_MASK = (1 << 64) - 1
_UINT32_MASK = (1 << 32) - 1


_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_MUL1 = 0xBF58476D1CE4E5B9
_SPLITMIX_MUL2 = 0x94D049BB133111EB


def _splitmix64(x: int) -> int:
    """splitmix64 finaliser (the standard xoshiro seeding mixer), plain ints.

    Deliberately implemented on Python integers: the service derives seeds
    per request for typically one-row inputs, where int arithmetic is an
    order of magnitude faster than numpy uint64 scalar ops.
    """
    x = (x + _SPLITMIX_GAMMA) & _UINT64_MASK
    x ^= x >> 30
    x = (x * _SPLITMIX_MUL1) & _UINT64_MASK
    x ^= x >> 27
    x = (x * _SPLITMIX_MUL2) & _UINT64_MASK
    x ^= x >> 31
    return x


def derive_request_seeds(
    base_seed: int, request_id: int, n_rows: int
) -> np.ndarray:
    """Per-row noise seeds for one service request, derived deterministically.

    The async query service assigns every submitted request a sequence number
    and derives one ``uint64`` seed per input row from ``(base_seed,
    request_id)``.  Each row's seed depends only on those two values — never
    on how the request is later batched — which is what makes a coalesced
    response bit-identical to the same request measured alone: every noise
    draw along the measurement path is keyed on the row's seed via
    :func:`sample_stream`.

    The derivation is a counter-mode splitmix64 chain rather than a
    :class:`~numpy.random.SeedSequence` because it sits on the service's
    per-request hot path (SeedSequence construction costs microseconds per
    request; this is tens of nanoseconds); the mixer is the standard xoshiro
    seeding finaliser, so distinct ``(base_seed, request_id, row)`` triples
    map to statistically independent seeds.
    """
    if n_rows < 1:
        raise ValueError(f"n_rows must be >= 1, got {n_rows}")
    root = _splitmix64(
        _splitmix64(int(base_seed) & _UINT64_MASK)
        ^ (int(request_id) & _UINT64_MASK)
    )
    return np.array(
        [
            _splitmix64((root + _SPLITMIX_GAMMA * row) & _UINT64_MASK)
            for row in range(1, n_rows + 1)
        ],
        dtype=np.uint64,
    )


def validate_seeds(seeds, n_rows: int, *, name: str = "seeds") -> np.ndarray:
    """Per-row noise seeds as a ``uint64`` array, one per batch row.

    Every entry must be an integer in ``[0, 2**64)``.  A float seed would
    truncate onto another row's stream (``1.5`` aliases ``1``) and a
    negative or too-wide one would wrap or overflow, so both raise a
    :class:`ValueError` naming ``name`` instead.
    """
    # A list is checked element by element: numpy would promote a mix of
    # small and >= 2**63 ints to float64 (or to object past 2**64).
    array = seeds if isinstance(seeds, np.ndarray) else np.asarray(seeds, dtype=object)
    if array.size == 0:
        array = np.empty(array.shape, dtype=np.uint64)
    elif array.dtype == object:
        values = array.ravel().tolist()
        if not all(
            isinstance(v, (int, np.integer)) and not isinstance(v, (bool, np.bool_))
            for v in values
        ):
            raise ValueError(f"{name} must be integers, got {values!r}")
        if not all(0 <= v <= _UINT64_MASK for v in values):
            raise ValueError(f"{name} must lie in [0, 2**64), got {values!r}")
        array = np.array(values, dtype=np.uint64).reshape(array.shape)
    elif array.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got dtype {array.dtype}")
    elif array.dtype.kind == "i" and array.min() < 0:
        raise ValueError(f"{name} must lie in [0, 2**64), got {int(array.min())}")
    if array.ndim != 1 or len(array) != n_rows:
        raise ValueError(
            f"{name} must be 1-D with one seed per batch row ({n_rows}), "
            f"got shape {array.shape}"
        )
    return array.astype(np.uint64, copy=False)


def _entropy_words(seed: int, *path: int) -> np.ndarray:
    """The ``uint32`` entropy words of ``[seed & M, *(part & M)]``, ``M = 2**64 - 1``.

    :class:`numpy.random.SeedSequence` splits every int of a list entropy
    into little-endian 32-bit words (one word below ``2**32``, two from
    there up, and ``[0]`` for zero).  Building that word array directly
    hands SeedSequence the same entropy — hence the same generator state —
    without its per-int coercion, which dominates stream construction.
    """
    words = []
    for part in (seed, *path):
        value = int(part) & _UINT64_MASK
        words.append(value & _UINT32_MASK)
        if value >> 32:
            words.append(value >> 32)
    return np.array(words, dtype=np.uint32)


def sample_stream(seed: int, *path: int) -> np.random.Generator:
    """An independent generator for one (seed, consumer-path) pair.

    ``path`` identifies the consumer — e.g. ``(domain, tile, channel)`` — so
    distinct noise sources never share a stream even when they share the
    per-row ``seed``.  The derivation is stateless: the same arguments always
    yield the same stream, regardless of call order or batch shape.  The
    stream equals ``default_rng(SeedSequence([seed & M, *(part & M)]))``
    with ``M = 2**64 - 1``, bit for bit.
    """
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(_entropy_words(seed, *path)))
    )


def seeded_noise_factors(seeds, *path: int, std: float) -> np.ndarray:
    """Per-row multiplicative noise factors ``1 + N(0, std)``, one per seed.

    The backend-agnostic counter-based sampler of the seeded measurement
    path: row ``i``'s factor is drawn from the stateless
    :func:`sample_stream` keyed on ``(seeds[i], *path)`` — exactly the
    stream the scalar per-row loop historically used — so the realizations
    are a pure function of the counter-derived seeds, independent of batch
    composition, call order, and compute backend.  Generation happens on
    the host (seeds and streams never live on a device); array backends
    receive the factors via one ``asarray`` transfer and apply them with an
    elementwise multiply, which keeps the seeded path bit-identical within
    each backend.
    """
    return np.array(
        [1.0 + sample_stream(int(seed), *path).normal(0.0, std) for seed in seeds]
    )


def fold_seed(seed: int, *path: int) -> int:
    """Derive a child ``uint64`` seed from ``seed`` and a consumer path.

    Used where a per-row seed must branch again (e.g. one sub-seed per
    repeated read of an averaging instrument) while staying in plain-integer
    form so it can be handed onwards as a ``sample_seeds`` entry.
    """
    state = np.random.SeedSequence(_entropy_words(seed, *path)).generate_state(
        1, dtype=np.uint64
    )
    return int(state[0])


def seeds_for_runs(base_seed: Optional[int], n_runs: int) -> list[int]:
    """Produce a list of integer seeds, one per independent run.

    Unlike :func:`spawn_rngs` this returns plain integers, which are easier to
    record in result metadata and to replay individually.
    """
    if n_runs < 0:
        raise ValueError(f"n_runs must be non-negative, got {n_runs}")
    seq = np.random.SeedSequence(base_seed)
    return [int(s.generate_state(1)[0]) for s in seq.spawn(n_runs)]


def shuffled_indices(
    n: int, rng: np.random.Generator, subset: Optional[Sequence[int]] = None
) -> np.ndarray:
    """Return a random permutation of ``range(n)`` (or of ``subset``)."""
    if subset is None:
        return rng.permutation(n)
    indices = np.asarray(list(subset), dtype=int)
    return rng.permutation(indices)


def choice_without_replacement(
    rng: np.random.Generator, population: Union[int, Iterable[int]], size: int
) -> np.ndarray:
    """Sample ``size`` distinct items from ``population`` (int = range)."""
    if isinstance(population, (int, np.integer)):
        n = int(population)
    else:
        population = np.asarray(list(population))
        n = len(population)
    if size > n:
        raise ValueError(f"cannot sample {size} items from population of {n}")
    idx = rng.choice(n, size=size, replace=False)
    if isinstance(population, np.ndarray):
        return population[idx]
    return idx
