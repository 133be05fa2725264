"""Counter-based Gaussian streams: every random number in vortexlab.

Philox is keyed by (seed, path); the stream, one per use of randomness, is
the counter's top word, so streams sit 2**192 blocks apart and never overlap.
One call draws a path's whole block. Salmon et al., SC'11.
"""

from __future__ import annotations

import numpy as np

WIENER = 0      # quadvar.sample_wiener_ensemble
SIMULATE = 1    # simulate.simulate, one block per path
SEED_END = 2 ** 64  # seeds lie in [0, SEED_END): the key's first word
SCHEME = "philox4x64; key (seed, path); counter [0, 0, 0, stream]; standard_normal"


def normals(seed: int, stream: int, path: int, shape) -> np.ndarray:
    """One block of standard normals for (seed, stream, path), C order; the
    seed, in [0, 2**64), is the key's first word as given."""
    bitgen = np.random.Philox(counter=[0, 0, 0, stream],
                              key=np.array([seed, path], dtype=np.uint64))
    return np.random.Generator(bitgen).standard_normal(shape)
