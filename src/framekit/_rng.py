"""Deterministic random generation.

All randomness flows through a PCG64 bit stream; Gaussian variates are
produced by an explicit Box-Muller transform on that stream rather than the
generator's native method, so the exact output sequence is pinned by this
file alone and survives library upgrades.
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(int(seed) & _MASK64))


def child_seed(seed: int, index: int) -> int:
    # splitmix-style mix keeps derived streams decorrelated and reproducible
    x = (int(seed) + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def standard_normal(rng: np.random.Generator, n: int) -> np.ndarray:
    if n <= 0:
        return np.zeros(0)
    m = (n + 1) // 2
    u1 = rng.random(m)
    u2 = rng.random(m)
    radius = np.sqrt(-2.0 * np.log1p(-u1))  # 1-u1 in (0,1], never log(0)
    angle = 2.0 * np.pi * u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    return z[:n]


def gaussian_matrix(rng: np.random.Generator, rows: int, cols: int,
                    complex_scalars: bool) -> np.ndarray:
    n = rows * cols
    if complex_scalars:
        re = standard_normal(rng, n)
        im = standard_normal(rng, n)
        flat = (re + 1j * im) / np.sqrt(2.0)
    else:
        flat = standard_normal(rng, n).astype(np.complex128)
    return flat.reshape(rows, cols)

