"""Deterministic, counter-based pseudorandom streams.

Every random decision in the package is a pure function of an integer key
tuple, never of call order or ambient interpreter state.  The generator is
SplitMix64: ``output(i) = mix64(key + (i + 1) * GAMMA)``, with key words
folded into a single 64-bit key.  This keeps data pipelines reproducible
across runs, platforms, and any parallel execution order.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def mix64(x: int) -> int:
    """SplitMix64 finalizer: bijective avalanche mix of a 64-bit word."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return (x ^ (x >> 31)) & MASK64


def _mix64_array(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return x


def fold_key(*words: int) -> int:
    """Fold integer key words into one 64-bit key, order-sensitively."""
    key = 0
    for w in words:
        key = mix64((key + GAMMA) ^ (int(w) & MASK64))
    return key


def stable_hash(text: str) -> int:
    """FNV-1a over UTF-8 bytes; stable across runs and platforms."""
    h = _FNV_OFFSET
    for b in text.encode("utf-8"):
        h = ((h ^ b) * _FNV_PRIME) & MASK64
    return h


class SplitMix64:
    """Sequential SplitMix64 stream; used where the contract pins it by name."""

    def __init__(self, seed: int):
        self.state = int(seed) & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GAMMA) & MASK64
        return mix64(self.state)

    def next_below(self, n: int) -> int:
        """Integer in [0, n); modulo reduction, pinned for reproducibility."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n


class RandomStream:
    """Counter-based stream keyed on integer words.

    The i-th output depends only on (key words, i): two streams built from
    equal words yield identical sequences regardless of what else ran.
    """

    def __init__(self, *words: int):
        self._key = fold_key(*words)
        self._counter = 0

    def next_u64(self) -> int:
        self._counter += 1
        return mix64((self._key + self._counter * GAMMA) & MASK64)

    def next_below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = (self.next_u64() >> 11) * 2.0**-53
        return lo + (hi - lo) * u

    def uniforms(self, n: int) -> np.ndarray:
        """Vectorized batch of n uniforms in [0, 1)."""
        start = self._counter + 1
        self._counter += n
        idx = np.arange(start, start + n, dtype=np.uint64)
        with np.errstate(over="ignore"):
            states = np.uint64(self._key) + idx * np.uint64(GAMMA)
        return (_mix64_array(states) >> np.uint64(11)) * 2.0**-53

    def truncated_normals(self, n: int, std: float = 1.0, bound: float = 2.0) -> np.ndarray:
        """n normals with |z| <= bound (in std units), via vectorized rejection."""
        out = np.empty(n, dtype=np.float64)
        filled = 0
        while filled < n:
            need = n - filled
            u1 = np.maximum(self.uniforms(need), 2.0**-53)
            u2 = self.uniforms(need)
            z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
            keep = z[np.abs(z) <= bound]
            out[filled : filled + keep.size] = keep
            filled += keep.size
        return out * std


def substream_outputs(streams, tag: int, indices, n: int) -> np.ndarray:
    """[len(indices), len(streams), n] uint64: at [v, i], the first n next_u64
    outputs of the stream keyed on fold_key(streams[i]'s key, tag, indices[v])."""
    key = np.uint64(0)
    with np.errstate(over="ignore"):
        for word in (np.array([s._key for s in streams], dtype=np.uint64), np.uint64(tag),
                     np.asarray(indices, dtype=np.uint64)[:, None]):
            key = _mix64_array((key + np.uint64(GAMMA)) ^ word)
        return _mix64_array(key[..., None]
                            + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(GAMMA))


def fisher_yates(items: list, rng) -> list:
    """Return a shuffled copy; swap partner drawn from rng.next_below."""
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.next_below(i + 1)
        out[i], out[j] = out[j], out[i]
    return out
