"""Key generation for the integer-sort workload.

Section 3.2: "our input data is synthetically generated and uniformly
distributed ... a well-established precedent" that "permits our results
to be compared directly with previously reported numbers."  A skewed
(Gaussian-sum, NAS-EP-style) generator is also provided for the
sampling/ balance ablation the paper alludes to.
"""

from __future__ import annotations

import numpy as np

from ...errors import ApplicationError

__all__ = ["uniform_keys", "gaussian_keys", "split_keys"]


def uniform_keys(n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` uniform 32-bit unsigned keys."""
    if n < 0:
        raise ApplicationError(f"cannot generate {n} keys")
    return rng.integers(0, 2**32, size=n, dtype=np.uint32)


def gaussian_keys(n: int, rng: np.random.Generator, terms: int = 4) -> np.ndarray:
    """Sum-of-uniforms keys (approximately Gaussian, as in NAS IS [2])."""
    if n < 0:
        raise ApplicationError(f"cannot generate {n} keys")
    if terms < 1:
        raise ApplicationError("need at least one term")
    acc = np.zeros(n, dtype=np.uint64)
    for _ in range(terms):
        acc += rng.integers(0, 2**32, size=n, dtype=np.uint64)
    return (acc // terms).astype(np.uint32)


def split_keys(keys: np.ndarray, p: int) -> list[np.ndarray]:
    """Initial block distribution of the key array over ``p`` ranks.

    The shards are read-only views of ``keys``, not copies: no rank
    writes into its shard, and writing through one raises.
    """
    n = keys.shape[0]
    if n % p != 0:
        raise ApplicationError(f"{n} keys do not distribute over {p} ranks")
    chunk = n // p
    shards = [keys[r * chunk : (r + 1) * chunk] for r in range(p)]
    for shard in shards:
        shard.flags.writeable = False
    return shards
