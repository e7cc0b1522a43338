"""Deterministic, collision-free random streams.

Every random draw in the library goes through a counter-based Philox
generator keyed by (seed, stream, *coords).  Two call sites that pass the
same key always see the same draws, and distinct streams never overlap,
so reordering unrelated work cannot perturb the numbers.  This is what
makes whole training runs bitwise reproducible.
"""

import numpy as np

from .errors import ContractError

# Stream tags.  Keep these stable: they are part of the reproducibility
# contract baked into checkpoints and experiment outputs.
STREAM_DATA = 1      # dataset synthesis and label corruption
STREAM_INIT = 2      # parameter initialization
STREAM_PERTURB = 3   # statistic perturbation draws
STREAM_MINE = 4      # triplet partner selection
STREAM_BATCH = 5     # batch order / sampler decisions


def keyed_rng(seed: int, stream: int, *coords: int) -> np.random.Generator:
    """Generator for the (seed, stream, coords) cell of the key space.

    coords may hold up to three non-negative integers (for example
    epoch, batch index, layer index).  Missing positions are zero.
    """
    if len(coords) > 3:
        raise ContractError("at most three stream coordinates are supported")
    words = [int(stream)] + [int(c) for c in coords]
    words += [0] * (4 - len(words))
    if any(w < 0 for w in words):
        raise ContractError("stream coordinates must be non-negative")
    bg = np.random.Philox(key=np.uint64(int(seed) & (2**64 - 1)),
                          counter=[np.uint64(w) for w in words])
    return np.random.Generator(bg)
