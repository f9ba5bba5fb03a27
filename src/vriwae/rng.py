"""Deterministic, splittable random streams, and the ordered chunk map that
runs every Monte Carlo cell on all cores.

Every stochastic routine in this package draws from an `RngStream`, which is a
thin wrapper around numpy's counter-based Philox generator keyed by
``(seed, stream_id)``.  Distinct keys give statistically independent streams
without any fast-forwarding, so grid cells can be run in any order and still
reproduce bit-identical results.

Every Monte Carlo loop draws by one rule: a cell (a d of a law grid, with
all its N and sigma variants, an SNR sweep, with all its N, a `gap_mc` call,
the epochs of a training run, the gaps of all its logged rows) reads one
fresh stream from counter 0, and replicate r of a cell whose replicates
take n words each reads words [r n, (r + 1) n).  A cell of several N draws
each replicate's batch at the largest N, and every N reads its first N
samples.  `_replicate_chunks` is the package's one chunk loop; it sizes
every chunk by its words alone, at most `_CHUNK_TARGET` of them (and at
least one replicate).  A kernel's largest
intermediate holds at most about one element per word, so the words bound
its memory too.  Some kernels hold more: the finite-difference oracle's
rows of differences hold up to three, at N < 3; the gap, collapse and
weights runners each hold one block per sigma variant of a d, and beside it
a copy of the prefix of one N at a time; and `gap_mc` on a list of
law states holds one block per state, in groups of states that the same
chunk loop sizes, each state counting as a replicate of its R x N words.
Since consecutive chunks read consecutive blocks of the one stream, the
draws do not depend on the chunk size.  Distinct cells, and distinct draw
purposes, read distinct stream ids (``child``).

`_chunk_map` is the package's one draw of replicate noise.  It runs the
chunks of one cell, at one seed, stream id and replicate count, on threads,
and hands each chunk's kernel only its words: it draws replicates
[start, stop) as one (stop - start, words) block of uniforms or normals, so
a kernel is a function of its words and never sees a stream, a start or a
stop.  A chunk that starts at word w of the cell builds a fresh stream at
the cell's key and skips to word w itself (`_stream_at`): Philox makes 4
words per counter step, so it advances the counter by w // 4 and drops
w % 4 words.  The calling thread and the helper threads that the map starts
take the chunks in turn from one shared counter; numpy's Philox words, its
ufuncs and scipy's `ndtri` release the interpreter lock, so the threads
draw and map at the same time.  Every kernel returns a tuple of arrays, and
the map returns that tuple with each item concatenated in chunk order along
the replicate axis, so no table depends on the number of threads; the
callers reduce the cell's samples in one batch, so none depends on the
chunk size either.  Training stays serial, since its epochs depend on each
other, and reads its chunks of epochs in order from one stream.

The map joins its helpers before it returns, so no thread outlives the call
that started it, and a forked child, a changed `_WORKERS` or a map called
from a kernel needs nothing of its own.  A map of W words (replicates times
per-replicate words) runs on min(`_WORKERS`, chunks, max(1, W //
`_CHUNK_TARGET`)) threads: a helper starts only for each full chunk of work
beyond the first, and a map of less than two chunks runs inline.  On 2
cores, the benchmark's small gap calls lose to a helper: a toy gap grid of
30,660 words took a median of 13.6 ms with it against 10.4 ms inline, and a
linear Gaussian one of 65,408 words 17.8 ms against 13.5 ms (15 interleaved
runs each).  The maps of `lowdim` (10.2M words) and `snr` (5.1M) keep both
threads.

`_CHUNK_TARGET` is a per-chunk constant, 2**16 words, the same at any
worker count, and peak memory sets its size: two chunks are in flight at a
time on 2 cores.  There, 2**16 words per chunk peak at 111.7 MB on
`lowdim` and 111.4 MB on `snr` (medians of 6 and 5 runs), and 10**6
words at 135.4 MB on `lowdim` (2 runs).  Smaller chunks keep memory flat
but pay a per-chunk overhead: at 2**14, `snr` fell to 88k log-weights per
reference time, against 219k at 2**16 and 153k serial.

Normal variates are produced by the inverse-CDF transform of 53-bit uniforms
(``ndtri``), a fixed documented choice.  Chi-square variates (`chi_square`,
for the linear Gaussian's exact log-weight law) read 3 uniforms each and run
Marsaglia and Tsang's gamma sampler ("A simple method for generating gamma
variables", ACM TOMS 26(3), 2000) on them: u_0 gives the candidate's normal
through ``ndtri``, u_1 its acceptance test, and a rejected candidate becomes
the inverse-CDF draw ``gammaincinv(k/2, u_2)`` on the third, independent
word.  This is exact at any acceptance rate: an accepted candidate has the
gamma law, and the fallback has it too, on a word independent of the test
that called for it.  Only the rejected candidates pay for `gammaincinv`
(about 2.7% at k = 3 and under 0.01% at k = 999).  Below k = 2 every
variate is the inverse-CDF draw.  Uniforms are built from raw 64-bit words
shifted into (0, 1), so no transform sees an endpoint.
Every uniform goes through `raw_uint64`.  `Generator.random(n) + 2**-54`
gives the same uniforms, bit for bit, but not in less time per word once
the allocator is warm, as in the benchmark: at 2**16 words, one thread, the
two read medians within 6% of each other, and which was faster changed from
run to run.  It would also bypass `raw_uint64`, which the benchmark's
tracer wraps to count the words drawn.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.random import Philox
from scipy.special import gammaincinv, ndtri

__all__ = ["RngStream", "make_stream", "raw_uint64", "uniform", "standard_normal",
           "chi_square", "permutation_indices"]

# target word count per chunk, for every chunked loop of the package (see
# the module docstring for its size)
_CHUNK_TARGET = 2**16
# threads that take the tasks of one `_chunk_map`: the calling thread and one
# helper per further core this process may run on
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


@dataclass
class RngStream:
    """One independent draw sequence, identified by (seed, stream_id)."""

    seed: int
    stream_id: int
    _bits: Philox = field(init=False, repr=False)

    def __post_init__(self):
        # Philox is keyed, not seeded: the 128-bit key (seed, stream_id)
        # selects the stream, the internal counter walks along it.
        if not (0 <= self.seed < 2**64 and 0 <= self.stream_id < 2**64):
            raise ValueError("seed and stream_id must be non-negative and below 2**64")
        self._bits = Philox(key=np.array([self.seed, self.stream_id], dtype=np.uint64))

    def child(self, offset: int) -> "RngStream":
        """Fresh stream at stream_id + offset, independent of this one."""
        return make_stream(self.seed, self.stream_id + offset)


def make_stream(seed: int, stream_id: int = 0) -> RngStream:
    """Construct an initialized stream.  Pure; touches no global state."""
    return RngStream(seed=seed, stream_id=stream_id)


def raw_uint64(stream: RngStream, n: int) -> np.ndarray:
    """n raw 64-bit words from the stream."""
    return stream._bits.random_raw(n)


def uniform(stream: RngStream, size) -> np.ndarray:
    """Uniform doubles strictly inside (0, 1).

    Uses the top 53 bits of each raw word, offset by half an ulp so that 0.0
    and 1.0 are unreachable.
    """
    shape = (size,) if np.isscalar(size) else tuple(size)
    n = int(np.prod(shape)) if shape else 1
    raw = raw_uint64(stream, n)
    raw >>= np.uint64(11)
    # in place: no n-element temporary besides the result, and the same bits
    u = raw.astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    return u.reshape(shape)


def _replicate_chunks(replicates: int, words: int):
    """(start, stop) replicate ranges of at most `_CHUNK_TARGET` words (and
    at least one replicate) each, for replicates of `words` words."""
    chunk = max(1, _CHUNK_TARGET // max(words, 1))
    start = 0
    while start < replicates:
        stop = min(start + chunk, replicates)
        yield start, stop
        start = stop


def _stream_at(seed: int, stream_id: int, word: int) -> RngStream:
    """Fresh stream at (seed, stream_id) whose next word is its word `word`.

    Philox makes 4 words per counter step, and `advance` moves the counter
    and empties the word buffer, so advancing by word // 4 and dropping
    word % 4 words lands on word `word`."""
    stream = make_stream(seed, stream_id)
    bits = stream._bits
    bits.advance(word // 4)
    bits.random_raw(word % 4)
    return stream


def _chunk_map(seed: int, stream_id: int, replicates: int, words: int, kernel: Callable,
               draw: Callable) -> tuple:
    """The tuple results of kernel(block) over the `_replicate_chunks` of
    `replicates` replicates of `words` words each, concatenated item by item
    in chunk order along the replicate axis, where `block` holds the draws
    of a chunk's replicates [start, stop): draw(stream, (stop - start,
    words)) on the fresh stream (seed, stream_id) at replicate `start`'s
    first word.  `draw` is `uniform` or `standard_normal`.

    The calling thread and up to `_WORKERS - 1` helpers, one for each full
    `_CHUNK_TARGET` of words beyond the first, started here and joined
    before the map returns, take the chunks in turn from one shared
    counter, and each result lands at its chunk's index, so the return
    value does not depend on how many threads ran.  A kernel's exception
    stops the remaining chunks and is raised here once every thread is
    done.
    """
    tasks = list(_replicate_chunks(replicates, words))
    results = [None] * len(tasks)
    order = iter(range(len(tasks)))
    lock = threading.Lock()
    errors: list = []

    def drain():
        while True:
            with lock:
                k = None if errors else next(order, None)
            if k is None:
                return
            start, stop = tasks[k]
            try:
                results[k] = kernel(draw(_stream_at(seed, stream_id, start * words),
                                         (stop - start, words)))
            except BaseException as exc:    # re-raised by the calling thread below
                errors.append(exc)
                return

    threads = min(_WORKERS, len(tasks), max(1, replicates * words // _CHUNK_TARGET))
    helpers = [threading.Thread(target=drain, name="vriwae-chunk") for _ in range(threads - 1)]
    for helper in helpers:
        helper.start()
    try:
        drain()
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]
    return tuple(map(np.concatenate, zip(*results)))


def standard_normal(stream: RngStream, size) -> np.ndarray:
    """i.i.d. standard normal draws via the inverse normal CDF.

    `size` may be an int or a shape tuple; the stream state advances by one
    raw word per variate.
    """
    u = uniform(stream, size)
    return ndtri(u, out=u)


def chi_square(u: np.ndarray, k: float) -> np.ndarray:
    """chi^2_k variates (...) from uniforms (..., 3), by Marsaglia and Tsang's
    exact gamma sampler with the inverse-CDF fallback of the module
    docstring: twice a Gamma(k/2) draw, k > 0."""
    a = 0.5 * k
    if a < 1.0:
        return 2.0 * gammaincinv(a, u[..., 2])
    dd = a - 1.0 / 3.0
    x = ndtri(u[..., 0])
    t = x / math.sqrt(9.0 * dd)
    # the candidate is dd v with v = (1 + t)^3; its acceptance exponent
    # x^2/2 + dd (1 - v + log v) is taken from v - 1 and log v = 3 log1p(t),
    # which keeps its digits where dd is large and v near 1
    vm1 = t * (3.0 + t * (3.0 + t))
    with np.errstate(divide="ignore", invalid="ignore"):    # t <= -1 is rejected
        exponent = dd * (3.0 * np.log1p(t) - vm1) + 0.5 * x * x
    accept = (t > -1.0) & (np.log(u[..., 1]) < exponent)
    out = 2.0 * dd * (1.0 + vm1)
    reject = ~accept
    if reject.any():
        out[reject] = 2.0 * gammaincinv(a, u[..., 2][reject])
    return out


def permutation_indices(stream: RngStream, n: int, k: int) -> np.ndarray:
    """First k indices of a uniform random permutation of range(n).

    Built on `uniform` only, so the result is reproducible from the stream
    contract alone.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    order = np.argsort(uniform(stream, n), kind="stable")
    return order[:k]
