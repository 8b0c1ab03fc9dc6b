"""Deterministic random numbers from a counter-based SplitMix64 stream.

A single 64-bit seed fully determines every draw, bit-for-bit, on every
platform; numpy is only used to vectorize the integer mixing.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = np.uint64(11)


def _mix(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


class Rng:
    """SplitMix64 generator: outputs are mix(seed + i * golden) for i = 1, 2, ..."""

    def __init__(self, seed: int):
        self.seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self._count = np.uint64(0)

    def _raw(self, n: int) -> np.ndarray:
        with np.errstate(over="ignore"):
            idx = self._count + np.arange(1, n + 1, dtype=np.uint64)
            self._count += np.uint64(n)
            return _mix(self.seed + idx * _GOLDEN)

    def uniform(self, *shape: int) -> np.ndarray:
        """float64 in [0, 1), shaped; scalar count draws a flat vector."""
        n = int(np.prod(shape)) if shape else 1
        u = (self._raw(n) >> _U53) * (2.0 ** -53)
        return u.reshape(shape) if shape else u

    def normal(self, *shape: int) -> np.ndarray:
        """Standard normals via Box-Muller on consecutive uniform pairs."""
        n = int(np.prod(shape)) if shape else 1
        m = (n + 1) // 2
        u1 = np.maximum(self.uniform(m), 2.0 ** -53)
        u2 = self.uniform(m)
        r = np.sqrt(-2.0 * np.log(u1))
        z = np.concatenate([r * np.cos(2 * np.pi * u2), r * np.sin(2 * np.pi * u2)])[:n]
        return z.reshape(shape) if shape else z

    def integers(self, bound: int, n: int = 1) -> np.ndarray:
        """n ints uniform in [0, bound) (tiny modulo bias, fine for shuffling)."""
        return (self._raw(n) % np.uint64(bound)).astype(np.int64)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = int(self.integers(i + 1)[0])
            items[i], items[j] = items[j], items[i]
