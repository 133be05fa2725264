"""Counter-based Gaussian streams for reproducible parallel Monte Carlo.

Each (seed, path) pair owns a Philox key; the step index is the block
counter. Draws for a given (seed, path, step) are therefore identical no
matter how many other paths or steps were generated before, so paths can be
simulated concurrently or replayed in isolation.
"""

from __future__ import annotations

import numpy as np


def step_normals(seed: int, path_index: int, step: int, n: int) -> np.ndarray:
    """n standard normals for one integrator step, in fixed mode order."""
    bitgen = np.random.Philox(counter=[step, 0, 0, 0],
                              key=[seed & 0xFFFFFFFFFFFFFFFF, path_index])
    return np.random.Generator(bitgen).standard_normal(n)

