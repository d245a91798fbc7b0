"""Deterministic, splittable random-stream derivation.

All randomness in the package flows through ``numpy.random.SeedSequence``.
Child streams are derived by extending the spawn key, which is a pure
function of (parent stream, index path): the same path always yields the
same generator, no matter how many workers are running or in what order
they execute.
"""

import numpy as np
import numpy.random  # numpy loads it lazily; load it here, not inside the first draw


def as_seed_sequence(seed):
    """Coerce an int / SeedSequence / None into a SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def substream(stream, *path):
    """Derive the child SeedSequence of `stream` at an index path.

    Stateless alternative to ``SeedSequence.spawn``: the child is keyed
    by ``stream.spawn_key + path``, so repeated calls with the same path
    return the same stream.
    """
    stream = as_seed_sequence(stream)
    return np.random.SeedSequence(
        entropy=stream.entropy,
        spawn_key=tuple(stream.spawn_key) + tuple(int(p) for p in path),
    )


def generator_at(stream, *path):
    """Return a ``numpy.random.Generator`` seeded at a child path."""
    return np.random.default_rng(substream(stream, *path))
