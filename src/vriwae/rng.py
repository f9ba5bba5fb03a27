"""Deterministic, splittable random streams.

Every stochastic routine in this package draws from an `RngStream`, which is a
thin wrapper around numpy's counter-based Philox generator keyed by
``(seed, stream_id)``.  Distinct keys give statistically independent streams
without any fast-forwarding, so grid cells can be run in any order and still
reproduce bit-identical results.

Every Monte Carlo loop draws by one rule: a cell (a grid point of an
experiment, an N of the SNR sweep, a `bound_mc` call, the epochs of a
training run) reads one fresh stream from counter 0, and replicate r of a
cell whose replicates take n words each reads words [r n, (r + 1) n).
`_replicate_chunks` is the package's one chunk loop; it bounds every batched
intermediate at `_CHUNK_TARGET` elements, and since consecutive chunks read
consecutive blocks of the one stream, the draws do not depend on the chunk
size.  Distinct cells, and distinct draw purposes, read distinct stream ids
(``child``).

Normal variates are produced by the inverse-CDF transform of 53-bit uniforms
(``ndtri``), a fixed documented choice; the models' exact log-weight laws
draw gamma variates the same way (``gammaincinv``).  Uniforms are built from
raw 64-bit words shifted into (0, 1), so the transform never sees an endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

__all__ = ["RngStream", "make_stream", "raw_uint64", "uniform", "standard_normal",
           "permutation_indices"]

# target element count of the largest intermediate array per chunk, for
# every chunked loop of the package
_CHUNK_TARGET = 1_000_000


@dataclass
class RngStream:
    """One independent draw sequence, identified by (seed, stream_id)."""

    seed: int
    stream_id: int
    _gen: Generator = field(init=False, repr=False)

    def __post_init__(self):
        # Philox is keyed, not seeded: the 128-bit key (seed, stream_id)
        # selects the stream, the internal counter walks along it.
        if not (0 <= self.seed < 2**64 and 0 <= self.stream_id < 2**64):
            raise ValueError("seed and stream_id must be non-negative and below 2**64")
        self._gen = Generator(Philox(key=np.array([self.seed, self.stream_id], dtype=np.uint64)))

    def child(self, offset: int) -> "RngStream":
        """Fresh stream at stream_id + offset, independent of this one."""
        return make_stream(self.seed, self.stream_id + offset)


def make_stream(seed: int, stream_id: int = 0) -> RngStream:
    """Construct an initialized stream.  Pure; touches no global state."""
    return RngStream(seed=seed, stream_id=stream_id)


def raw_uint64(stream: RngStream, n: int) -> np.ndarray:
    """n raw 64-bit words from the stream."""
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    return stream._gen.bit_generator.random_raw(n)


def uniform(stream: RngStream, size) -> np.ndarray:
    """Uniform doubles strictly inside (0, 1).

    Uses the top 53 bits of each raw word, offset by half an ulp so that 0.0
    and 1.0 are unreachable.
    """
    shape = (size,) if np.isscalar(size) else tuple(size)
    n = int(np.prod(shape)) if shape else 1
    raw = raw_uint64(stream, n)
    return (((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53).reshape(shape)


def _replicate_chunks(replicates: int, per_replicate_elems: int):
    """(start, stop) replicate ranges of at most `_CHUNK_TARGET` elements
    (and at least one replicate) each."""
    chunk = max(1, _CHUNK_TARGET // max(per_replicate_elems, 1))
    start = 0
    while start < replicates:
        stop = min(start + chunk, replicates)
        yield start, stop
        start = stop


def standard_normal(stream: RngStream, size) -> np.ndarray:
    """i.i.d. standard normal draws via the inverse normal CDF.

    `size` may be an int or a shape tuple; the stream state advances by one
    raw word per variate.
    """
    return ndtri(uniform(stream, size))


def permutation_indices(stream: RngStream, n: int, k: int) -> np.ndarray:
    """First k indices of a uniform random permutation of range(n).

    Built on `uniform` only, so the result is reproducible from the stream
    contract alone.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    order = np.argsort(uniform(stream, n), kind="stable")
    return order[:k]
