"""Named, seeded random streams.

Every stochastic component in the reproduction draws from its own named
substream, derived deterministically from a root seed.  This decouples the
components: adding an extra draw to the workload generator does not perturb
the CDN's jitter sequence, so experiments stay comparable across code
changes.
"""

from __future__ import annotations

import hashlib

import numpy as np


def substream_seed(root_seed: int, name: str) -> int:
    """Derive a stable 63-bit seed for the substream ``name``.

    Uses SHA-256 over ``"{root_seed}/{name}"`` so the mapping is stable
    across Python processes and versions (unlike ``hash()``).
    """
    digest = hashlib.sha256(f"{root_seed}/{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class RandomStreams:
    """A factory of independent named :class:`numpy.random.Generator` streams.

    >>> streams = RandomStreams(seed=7)
    >>> a = streams.get("workload")
    >>> b = streams.get("workload")
    >>> a is b
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        if name not in self._streams:
            self._streams[name] = np.random.default_rng(substream_seed(self.seed, name))
        return self._streams[name]

    def spawn(self, name: str) -> "RandomStreams":
        """Create a child factory whose streams are independent of this one."""
        return RandomStreams(substream_seed(self.seed, f"spawn/{name}"))
