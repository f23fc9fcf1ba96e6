"""Deterministic random streams.

Every stochastic routine in the package draws from a Philox counter-based
generator keyed by (seed, module tag, *indices).  Tags are hashed with crc32
so the derivation is stable across platforms and releases.  Gaussians are
produced by Box-Muller over the raw uniform stream in a fixed order (pairs
consumed cosine-first), never by the generator's own normal method, so a
given (seed, tag, indices) triple yields the same values everywhere.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["RandomStream", "derive_stream"]

_TWO_PI = 2.0 * np.pi


def _tag_entropy(tag: str, indices: tuple[int, ...]) -> list[int]:
    words = [zlib.crc32(tag.encode("utf-8"))]
    words.extend(int(i) & 0xFFFFFFFF for i in indices)
    return words


class RandomStream:
    """One logical stream: normals via Box-Muller over Philox uniforms."""

    def __init__(self, seed: int, tag: str, *indices: int):
        ss = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1),
                                    spawn_key=tuple(_tag_entropy(tag, indices)))
        self._gen = np.random.Generator(np.random.Philox(ss))
        self._pending: float | None = None

    def normals(self, n: int) -> np.ndarray:
        """n standard normals; Box-Muller pairs, leftover carried to the next call."""
        n = int(n)
        out = np.empty(n)
        pos = 0
        if self._pending is not None and n > 0:
            out[0] = self._pending
            self._pending = None
            pos = 1
        need = n - pos
        if need > 0:
            pairs = (need + 1) // 2
            u = self._gen.random(2 * pairs)
            r = np.sqrt(-2.0 * np.log1p(-u[0::2]))
            theta = _TWO_PI * u[1::2]
            g = np.empty(2 * pairs)
            g[0::2] = r * np.cos(theta)
            g[1::2] = r * np.sin(theta)
            out[pos:] = g[:need]
            if need % 2 == 1:
                self._pending = float(g[need])
        return out


def derive_stream(seed: int, tag: str, *indices: int) -> RandomStream:
    """Stream for (seed, tag, indices); disjoint tuples give independent streams."""
    return RandomStream(seed, tag, *indices)
