"""Counter-based Gaussian streams: every random number in vortexlab.

Philox is keyed by (seed, path); the stream, one per use of randomness, is
the counter's top word, so streams sit 2**192 blocks apart and never overlap.
One draw is a path's whole block. Salmon et al., SC'11.
"""

from __future__ import annotations

import numpy as np

WIENER = 0      # quadvar.sample_wiener_ensemble
SIMULATE = 1    # simulate.simulate, one block per path
SEED_END = 2 ** 64  # seeds lie in [0, SEED_END): the key's first word
SCHEME = "philox4x64; key (seed, path); counter [0, 0, 0, stream]; standard_normal"


def normals(seed: int, stream: int, paths, shape):
    """A generator of one block of standard normals per path in `paths`, for
    (seed, stream, path), C order; the seed, in [0, 2**64), is the key's first
    word as given. One Philox is re-keyed per path: a fresh one's draws."""
    bitgen = np.random.Philox(counter=[0, 0, 0, stream], key=0)
    gen, state = np.random.Generator(bitgen), bitgen.state
    for path in paths:  # the state of a fresh Philox keyed (seed, path)
        state["state"]["key"] = np.array([seed, path], dtype=np.uint64)
        bitgen.state = state
        yield gen.standard_normal(shape)
