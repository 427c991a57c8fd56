"""Float chunks salted with the values comparisons treat specially."""

import numpy as np


def special_float_chunks(p, n, seed, dtype=np.float64):
    """``p`` chunks of ``n`` normal deviates, a tenth of them NaN and a
    few each of +-inf, -0.0 and 0.0."""
    rng = np.random.default_rng(seed)
    chunks = []
    for _ in range(p):
        c = rng.normal(size=n).astype(dtype)
        c[rng.integers(0, n, n // 10)] = np.nan
        for value in (np.inf, -np.inf, -0.0, 0.0):
            c[rng.integers(0, n, 5)] = value
        chunks.append(c)
    return chunks
