"""Deterministic randomness helpers.

Every experiment owns a single :class:`SeededRNG`; substrates derive
named child streams from it (``rng.fork("ovs")``) so adding a new random
consumer to one subsystem never perturbs the draws seen by another.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Sequence

# The stdlib's normalvariate constant, 4 * exp(-0.5) / sqrt(2).
_NV_MAGICCONST = 4 * math.exp(-0.5) / math.sqrt(2.0)


class SeededRNG:
    """A named, forkable wrapper around :class:`random.Random`."""

    def __init__(self, seed: int, name: str = "root"):
        self.seed = int(seed)
        self.name = name
        self._random = random.Random(self._derive(seed, name))

    @staticmethod
    def _derive(seed: int, name: str) -> int:
        digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def fork(self, name: str) -> "SeededRNG":
        """An independent stream keyed by (seed, parent name, child name)."""
        return SeededRNG(self.seed, f"{self.name}/{name}")

    # -- primitive draws ---------------------------------------------------

    def uniform(self, low: float, high: float) -> float:
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Inclusive-bounds integer draw."""
        return self._random.randint(low, high)

    def random(self) -> float:
        return self._random.random()

    def choice(self, seq: Sequence):
        return self._random.choice(seq)

    def shuffle(self, seq: list) -> None:
        self._random.shuffle(seq)

    def random_u32(self) -> int:
        """A 32-bit random value; used for packet trace IDs (§III-B)."""
        return self._random.getrandbits(32)

    # -- distributions used by the substrates -------------------------------

    def exponential_ns(self, mean_ns: float) -> int:
        """Exponential inter-arrival / service jitter, floored at 0."""
        return max(0, int(self._random.expovariate(1.0 / mean_ns)))

    def normal_ns(self, mean_ns: float, stddev_ns: float) -> int:
        """Gaussian service-time jitter, floored at 0."""
        return max(0, int(self._random.gauss(mean_ns, stddev_ns)))

    def lognormal_ns(self, median_ns: float, sigma: float) -> int:
        """Heavy-ish tail for per-packet kernel service times.

        ``random.Random.lognormvariate`` inlined: the same
        Kinderman-Monahan loop as the stdlib's ``normalvariate``, so it
        draws the same ``random()`` values in the same order and does
        the same float operations.  Every stage cost goes through here.
        """
        random = self._random.random
        log = math.log
        while True:
            u1 = random()
            u2 = 1.0 - random()
            z = _NV_MAGICCONST * (u1 - 0.5) / u2
            if z * z / 4.0 <= -log(u2):
                break
        return max(0, int(math.exp(log(median_ns) + z * sigma)))

    def pareto_ns(self, scale_ns: float, alpha: float) -> int:
        """Pareto tail; used for rare long interference events."""
        return max(0, int(scale_ns * self._random.paretovariate(alpha)))

    def bernoulli(self, probability: float) -> bool:
        return self._random.random() < probability
