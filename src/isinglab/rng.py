"""Deterministic random streams.

Every random quantity in the package is drawn from a named substream of a
single 64-bit master seed.  Substreams use numpy's counter-based Philox
generator seeded with ``SeedSequence([master, hash(purpose), index])``, so

* runs are bit-reproducible across platforms for a fixed numpy version,
* adding a new purpose never perturbs the draws of existing ones,
* per-index streams (one per chain, per seed cell, ...) are independent.
"""

from __future__ import annotations

import functools
import hashlib
import math

import numpy as np

_MASK64 = (1 << 64) - 1

# Poisson inversion by a CDF table summed term by term is exact only while
# exp(-mean) is comfortably above the double underflow threshold.
POISSON_MEAN_CAP = 30.0


def purpose_key(purpose: str) -> int:
    """Stable 64-bit key for a stream purpose label."""
    digest = hashlib.blake2b(purpose.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def substream(master_seed: int, purpose: str, index: int = 0) -> np.random.Generator:
    """Philox generator for one named purpose under a master seed."""
    if index < 0:
        raise ValueError(f"stream index must be >= 0, got {index}")
    seq = np.random.SeedSequence(
        [int(master_seed) & _MASK64, purpose_key(purpose), int(index)]
    )
    return np.random.Generator(np.random.Philox(seq))


@functools.cache
def _poisson_cdf(mean: float) -> np.ndarray:
    """P[N <= k] for k below the cap, each term added in turn, then +inf at the cap."""
    p = math.exp(-mean)
    cdf = [p]
    # After mean + 40*sqrt(mean) + 50 terms the remaining tail is far below
    # double resolution, so the cap is unreachable for u < 1.
    for k in range(1, int(mean + 40.0 * math.sqrt(mean) + 50.0)):
        p *= mean / k
        cdf.append(cdf[-1] + p)
    table = np.array(cdf + [np.inf])
    table.setflags(write=False)
    return table


def poisson_by_inversion(u, mean: float) -> np.ndarray:
    """Poisson(mean) quantiles at the uniforms u, by inversion.

    Each draw consumes exactly one uniform, which keeps tree generation
    replayable draw-for-draw: the draw at u is the least k with
    u <= P[N <= k], or the cap if there is none.  Valid for
    mean <= POISSON_MEAN_CAP.
    """
    u = np.asarray(u, dtype=np.float64)
    if not (0.0 <= u.min(initial=0.0) and u.max(initial=0.0) < 1.0):  # nan fails both
        raise ValueError("u must lie in [0, 1)")
    if not 0.0 < mean <= POISSON_MEAN_CAP:
        raise ValueError(f"mean must lie in (0, {POISSON_MEAN_CAP}], got {mean}")
    return _poisson_cdf(float(mean)).searchsorted(u, side="left")
