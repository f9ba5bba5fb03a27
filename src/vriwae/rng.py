"""Deterministic, splittable random streams.

Every stochastic routine in this package draws from an `RngStream`, which is a
thin wrapper around numpy's counter-based Philox generator keyed by
``(seed, stream_id)``.  Distinct keys give statistically independent streams
without any fast-forwarding, so replicates can be farmed out to workers in any
order and still reproduce bit-identical results.

Per-replicate draws use one keyed convention: replicate r of a block starting
at stream_id ``base`` reads its words from stream (seed, base + r), starting
at counter 0, which is also what ``make_stream(seed, base).child(r)`` yields.
`keyed_uniforms` returns those rows for a whole chunk of replicates at once:
row i equals ``uniform(make_stream(seed, stream_ids[i]), n)`` word for word,
but it re-keys one Philox instead of constructing a generator per row.
`_replicate_chunks` is the package's one chunk loop; it bounds every batched
intermediate at `_CHUNK_TARGET` elements.  Draws that are not per replicate
come sequentially from one stream.

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

__all__ = ["RngStream", "make_stream", "raw_uint64", "uniform", "keyed_uniforms",
           "standard_normal", "permutation_indices"]

# target element count of the largest intermediate array per chunk, for
# every chunked loop of the package
_CHUNK_TARGET = 1_000_000


@dataclass
class RngStream:
    """One independent draw sequence, identified by (seed, stream_id)."""

    seed: int
    stream_id: int
    _gen: Generator = field(repr=False, default=None)

    def __post_init__(self):
        key = _key(self.seed, self.stream_id)
        if self._gen is None:
            # Philox is keyed, not seeded: the 128-bit key (seed, stream_id)
            # selects the stream, the internal counter walks along it.
            self._gen = Generator(Philox(key=key))

    def child(self, offset: int) -> "RngStream":
        """Fresh stream at stream_id + offset, independent of this one."""
        return make_stream(self.seed, self.stream_id + offset)


def _key(seed: int, stream_id: int) -> np.ndarray:
    """The Philox key [seed, stream_id]; each must fit in 64 unsigned bits."""
    if not (0 <= seed < 2**64 and 0 <= stream_id < 2**64):
        raise ValueError("seed and stream_id must be non-negative and below 2**64")
    return np.array([seed, stream_id], dtype=np.uint64)


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
    return _uniform_from_raw(raw_uint64(stream, n)).reshape(shape)


def keyed_uniforms(seed: int, stream_ids, n: int) -> np.ndarray:
    """Uniforms of shape (len(stream_ids), n) whose row i is
    ``uniform(make_stream(seed, stream_ids[i]), n)``: the first n words of
    stream (seed, stream_ids[i]).

    One Philox is re-keyed per row by assigning its state (key
    [seed, stream_id], counter 0, empty output buffer), which is the state a
    freshly constructed stream starts in.
    """
    ids = np.asarray(stream_ids)
    if ids.size:
        _key(seed, int(ids.min()))
        _key(seed, int(ids.max()))
    bitgen = Philox(key=_key(seed, 0))
    state = bitgen.state
    key = state["state"]["key"]
    raw = np.empty((ids.size, n), dtype=np.uint64)
    for i, stream_id in enumerate(ids):
        key[1] = stream_id
        bitgen.state = state
        raw[i] = bitgen.random_raw(n)
    return _uniform_from_raw(raw)


def _replicate_chunks(replicates: int, per_replicate_elems: int):
    """(start, stop) replicate ranges of at most `_CHUNK_TARGET` elements
    (and at least one replicate) each."""
    chunk = max(1, _CHUNK_TARGET // max(per_replicate_elems, 1))
    start = 0
    while start < replicates:
        stop = min(start + chunk, replicates)
        yield start, stop
        start = stop


def _uniform_from_raw(raw: np.ndarray) -> np.ndarray:
    """The uniforms of `uniform` from raw words, elementwise."""
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


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
