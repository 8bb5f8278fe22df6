"""Seeded random-number helpers shared across the library.

Every stochastic component in repro (Monte-Carlo estimators, the
discrete-event simulator, the telemetry generator) accepts either an integer
seed or a ready-made :class:`numpy.random.Generator`.  Centralising the
coercion here keeps seeding behaviour identical everywhere, which is what
makes whole-experiment runs reproducible from a single seed.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    ``None`` yields a fresh OS-entropy generator, an ``int`` yields a
    deterministic PCG64 stream, and an existing generator is passed through
    unchanged (so callers can share one stream across components).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Derive ``count`` statistically independent child generators.

    Used to give each simulated node / injector its own stream so that
    adding a component never perturbs the random sequence seen by others.
    """
    return [np.random.default_rng(s) for s in rng.bit_generator.seed_seq.spawn(count)]


def stream_position(rng: np.random.Generator) -> tuple:
    """Everything a holder of ``rng`` can advance, as one comparable value.

    Any draw moves the bit generator's state; :func:`spawn` moves only the
    seed sequence's child counter.  Two equal positions of one generator
    therefore mean nothing was drawn from it, or derived from it, between.
    """
    bit_generator = rng.bit_generator
    return bit_generator.state, bit_generator.seed_seq.n_children_spawned
