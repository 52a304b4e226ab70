"""Deterministic 64-bit counter-based generator (splitmix64).

Chosen so sweeps replay bit-exactly from a seed in any implementation;
per-trial streams derive from seed XOR a mixed trial index.
"""

from __future__ import annotations

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK
    return z ^ (z >> 31)


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & MASK

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & MASK
        return _mix(self._state)

    def random(self) -> float:
        """Uniform in [0, 1) with 53 bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def uniform(self, a: float, b: float) -> float:
        return a + (b - a) * self.random()

    def randint(self, a: int, b: int) -> int:
        """Uniform integer in [a, b] inclusive."""
        n = b - a + 1
        return a + self.next_u64() % n

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]


def trial_seed(seed: int, trial: int) -> int:
    """Seed of a trial's independent stream: seed XOR mixed trial index."""
    return (seed ^ _mix(trial + 1)) & MASK


def trial_rng(seed: int, trial: int) -> SplitMix64:
    """Independent per-trial stream."""
    return SplitMix64(trial_seed(seed, trial))
