"""
Counter-based deterministic randomness.

The generator is splitmix64 (Steele, Lea & Flood's 64-bit mixer): state
advances by the golden-gamma constant 0x9E3779B97F4A7C15 and each output
is the mixed state.  It is seedable from tuples of integers in [0, 2^64), so
independent, order-insensitive streams can be derived per sample index;
results are identical across platforms and processes.
"""
from __future__ import annotations

from fractions import Fraction

_GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """splitmix64 stream; ``seed_from`` folds a tuple into one seed."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    @staticmethod
    def seed_from(*parts: int) -> "SplitMix64":
        acc = 0
        for p in parts:
            if not 0 <= p <= _MASK:
                raise ValueError(f"seed part {p} lies outside [0, 2^64)")
            acc = _mix((acc + _GAMMA + p) & _MASK)
        return SplitMix64(acc)

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        return _mix(self.state)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), bias-free by rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % bound


def fisher_yates(n: int, rng: SplitMix64) -> tuple[int, ...]:
    """Uniform permutation of 1..n (swap positions n-1 down to 1)."""
    arr = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        arr[i], arr[j] = arr[j], arr[i]
    return tuple(arr)


def rational_in_0_10(rng: SplitMix64) -> Fraction:
    """Uniform choice of denominator d <= 64, then numerator in 1..10d."""
    d = 1 + rng.below(64)
    return Fraction(1 + rng.below(10 * d), d)
