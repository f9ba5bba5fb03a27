import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, kstest

from vriwae import rng as vrng
from vriwae.rng import (_chunk_map, _stream_at, chi_square, make_stream, permutation_indices,
                        raw_uint64, standard_normal, uniform)


def test_same_key_same_draws():
    a = standard_normal(make_stream(7, 0), 100)
    b = standard_normal(make_stream(7, 0), 100)
    assert np.array_equal(a, b)


def test_stream_separation():
    a = standard_normal(make_stream(7, 0), 100)
    b = standard_normal(make_stream(7, 1), 100)
    assert a[0] != b[0]
    assert not np.array_equal(a, b)


def test_seed_separation():
    a = standard_normal(make_stream(7, 0), 100)
    b = standard_normal(make_stream(8, 0), 100)
    assert a[0] != b[0]


def test_empty_draw():
    assert standard_normal(make_stream(0, 0), 0).shape == (0,)


def test_shape_tuple():
    x = standard_normal(make_stream(3, 2), (4, 5))
    assert x.shape == (4, 5)


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        make_stream(-1, 0)
    with pytest.raises(ValueError):
        make_stream(0, -2)


def test_key_range():
    # seeds and stream ids are the two 64-bit halves of the Philox key
    with pytest.raises(ValueError):
        make_stream(2**64, 0)
    with pytest.raises(ValueError):
        make_stream(0, 2**64)
    top = uniform(make_stream(2**64 - 1, 3), 8)
    assert not np.array_equal(top, uniform(make_stream(2**64 - 2, 3), 8))
    assert not np.array_equal(top, uniform(make_stream(0, 3), 8))


def test_normal_moments():
    # CLT bound: 3/sqrt(1e6) ~ 0.003 for the mean, similar for the variance
    x = standard_normal(make_stream(123, 5), 1_000_000)
    assert abs(x.mean()) < 0.005
    assert abs(x.var() - 1.0) < 0.01


@pytest.mark.parametrize("k", [1, 2, 3, 9, 999, 59_999])
def test_chi_square_law(k):
    # accepted Marsaglia-Tsang candidates and the inverse-CDF fallback both
    # have the exact law; below k = 2 every variate is the fallback
    x = chi_square(uniform(make_stream(41, k), (100_000, 3)), k)
    assert kstest(x, chi2(k).cdf).pvalue > 1e-3


def test_chi_square_fallback_draws_rejected_candidates(monkeypatch):
    # at k = 3 a few percent of the candidates are rejected, and each becomes
    # a finite, positive inverse-CDF draw on its own third word
    fallback = []
    real = vrng.gammaincinv

    def counted(a, u):
        fallback.append(u.size)
        return real(a, u)

    monkeypatch.setattr(vrng, "gammaincinv", counted)
    u = uniform(make_stream(41, 3), (1000, 100, 3))
    x = chi_square(u, 3)
    assert x.shape == (1000, 100)
    assert 0 < sum(fallback) < 0.05 * x.size
    assert np.all(np.isfinite(x)) and np.all(x > 0)


def test_uniform_open_interval():
    u = uniform(make_stream(11, 3), 200_000)
    assert u.min() > 0.0
    assert u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005


def test_chunked_draws_match_single_call():
    # sequential consumption: chunk boundaries must not change the values
    s1 = make_stream(9, 4)
    whole = standard_normal(s1, 1000)
    s2 = make_stream(9, 4)
    parts = np.concatenate([standard_normal(s2, 300), standard_normal(s2, 700)])
    assert np.array_equal(whole, parts)


def test_child_streams_independent():
    s = make_stream(5, 100)
    a = standard_normal(s.child(1), 50)
    b = standard_normal(s.child(2), 50)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, standard_normal(make_stream(5, 101), 50))


def test_permutation_indices():
    idx = permutation_indices(make_stream(1, 0), 20, 10)
    assert idx.shape == (10,)
    assert len(set(idx.tolist())) == 10
    assert all(0 <= i < 20 for i in idx)
    again = permutation_indices(make_stream(1, 0), 20, 10)
    assert np.array_equal(idx, again)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=2**32, max_value=2**64 - 1),
       stream_id=st.integers(min_value=0, max_value=2**64 - 1),
       word=st.sampled_from([0, 1, 3, 4, 5, 13, 160, 161]), n=st.sampled_from([0, 1, 5]))
def test_stream_at_reads_words_from_its_offset(seed, stream_id, word, n):
    # a chunk's stream reads words [w, w + n) of one fresh stream at its key
    whole = raw_uint64(make_stream(seed, stream_id), word + n)
    assert np.array_equal(raw_uint64(_stream_at(seed, stream_id, word), n), whole[word:])


# the seed, replicate count and (stream_id, words) cells of the maps below,
# one map per cell
_SEED, _REPLICATES = 2**40 + 3, 13
_CELLS = [(7, 3), (8, 5), (9, 2)]


def _raw_words(stream, shape):
    """A `draw` of raw words, so that each kernel's input is its own words."""
    return raw_uint64(stream, shape[0] * shape[1]).reshape(shape)


def _whole(cell, seed=_SEED, replicates=_REPLICATES):
    """The words of every replicate of the (stream_id, words) `cell`, from
    one fresh stream."""
    stream_id, words = cell
    return raw_uint64(make_stream(seed, stream_id), replicates * words)


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("target", [1, 25, 10**6])
def test_chunk_map_reads_each_cells_stream_in_replicate_order(monkeypatch, workers, target):
    # concatenated in chunk order, the words of each cell are one fresh
    # stream's, whatever the chunk size and the number of threads
    monkeypatch.setattr(vrng, "_WORKERS", workers)
    monkeypatch.setattr(vrng, "_CHUNK_TARGET", target)
    for stream_id, words in _CELLS:
        def kernel(block, words=words):
            assert block.shape[1:] == (words,)
            return (block,)

        block, = _chunk_map(_SEED, stream_id, _REPLICATES, words, kernel, _raw_words)
        assert np.array_equal(block.reshape(-1), _whole((stream_id, words)))


def test_chunk_map_concatenates_tuple_results_item_by_item(monkeypatch):
    # a kernel's tuple has each item joined along the replicate axis; here
    # the items are a chunk's uniforms and their row sums
    monkeypatch.setattr(vrng, "_WORKERS", 2)
    monkeypatch.setattr(vrng, "_CHUNK_TARGET", 25)
    for stream_id, words in _CELLS:
        u, sums = _chunk_map(_SEED, stream_id, _REPLICATES, words,
                             lambda u: (u, u.sum(axis=1)), uniform)
        want = uniform(make_stream(_SEED, stream_id), (_REPLICATES, words))
        assert np.array_equal(u, want)
        assert np.array_equal(sums, want.sum(axis=1))


def test_chunk_map_runs_each_task_once_under_contention(monkeypatch):
    # more threads than cores and a short switch interval: a task taken
    # twice, or lost, would break the counts or the order
    monkeypatch.setattr(vrng, "_WORKERS", 4)
    monkeypatch.setattr(vrng, "_CHUNK_TARGET", 10)
    lock = threading.Lock()
    calls: dict = {}

    def kernel(words):
        # a chunk is known by its first word
        with lock:
            calls[int(words[0, 0])] = calls.get(int(words[0, 0]), 0) + 1
        return (words,)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            for stream_id, words in _CELLS:
                calls.clear()
                out, = _chunk_map(_SEED, stream_id, _REPLICATES, words, kernel, _raw_words)
                whole = _whole((stream_id, words))
                assert out.reshape(-1).tolist() == whole.tolist()
                assert calls == {int(whole[start * words]): 1
                                 for start, _ in vrng._replicate_chunks(_REPLICATES, words)}
    finally:
        sys.setswitchinterval(interval)


def test_chunk_map_under_one_chunk_runs_inline(monkeypatch):
    # 3 tasks of one replicate each, 1.8 chunks' words in all, under two
    # chunks: no helper starts.  The first kernel waits for a helper to take
    # a task, so one that had started would show on the recorded threads
    monkeypatch.setattr(vrng, "_WORKERS", 2)
    words = round(0.6 * vrng._CHUNK_TARGET)
    tasks = list(vrng._replicate_chunks(3, words))
    assert len(tasks) == 3 and 3 * words < 2 * vrng._CHUNK_TARGET
    threads = []
    ran = []
    helper_ran = threading.Event()

    def kernel(block):
        threads.append(threading.current_thread())
        ran.append(int(block[0, 0]))
        if threading.current_thread() is not threading.main_thread():
            helper_ran.set()
        elif len(threads) == 1:
            helper_ran.wait(timeout=0.5)
        return (block,)

    out, = _chunk_map(4, 0, 3, words, kernel, _raw_words)
    assert len(threads) == 3
    assert set(threads) == {threading.main_thread()}
    # one chunk per replicate, each run once, in order
    whole = _whole((0, words), 4, 3)
    assert ran == [int(whole[start * words]) for start, _ in tasks]
    assert out.shape == (3, words) and np.array_equal(out.reshape(-1), whole)


def test_chunk_map_of_two_chunks_starts_a_helper(monkeypatch):
    # a cell of exactly two full chunks starts a helper, and it takes a
    # chunk: a chunk on the calling thread waits until it has
    monkeypatch.setattr(vrng, "_WORKERS", 2)
    monkeypatch.setattr(vrng, "_CHUNK_TARGET", 100)
    cell = (6, 4)
    assert 50 * cell[1] == 2 * vrng._CHUNK_TARGET
    helper_ran = threading.Event()
    names = []

    def kernel(words):
        names.append(threading.current_thread().name)
        if threading.current_thread() is threading.main_thread():
            if not helper_ran.wait(timeout=30):
                raise TimeoutError("no helper took a chunk")
        else:
            helper_ran.set()
        return (words,)

    words, = _chunk_map(5, cell[0], 50, cell[1], kernel, _raw_words)
    assert len(names) == 2 and "vriwae-chunk" in names
    assert np.array_equal(words.reshape(-1), _whole(cell, 5, 50))


class _HelperError(Exception):
    pass


def test_chunk_map_raises_a_helpers_exception(monkeypatch):
    # the caller's chunks wait until a helper has taken one, and that chunk
    # raises: the map stops and raises the helper's exception
    monkeypatch.setattr(vrng, "_WORKERS", 2)
    monkeypatch.setattr(vrng, "_CHUNK_TARGET", 1)
    helper_ran = threading.Event()
    ran = []

    def kernel(words):
        ran.append(int(words[0, 0]))
        if threading.current_thread() is threading.main_thread():
            if not helper_ran.wait(timeout=30):
                raise TimeoutError("no helper took a chunk")
            return (words,)
        helper_ran.set()
        raise _HelperError(f"chunk at word {words[0, 0]}")

    with pytest.raises(_HelperError):
        _chunk_map(0, 0, 50, 1, kernel, _raw_words)
    assert helper_ran.is_set()
    assert len(ran) < 50        # the remaining chunks did not run


def _live_helpers():
    return [t for t in threading.enumerate() if t.name.startswith("vriwae-chunk")]


def test_no_helper_outlives_its_map(monkeypatch):
    # the caller's chunks wait until a helper has taken one, so helpers run;
    # they are joined before the map returns, also when a kernel raises
    monkeypatch.setattr(vrng, "_WORKERS", 2)
    monkeypatch.setattr(vrng, "_CHUNK_TARGET", 1)
    helper_ran = threading.Event()

    def kernel(words):
        if threading.current_thread() is threading.main_thread():
            if not helper_ran.wait(timeout=30):
                raise TimeoutError("no helper took a chunk")
        else:
            helper_ran.set()
        return (words,)

    assert len(_chunk_map(1, 2, 50, 1, kernel, _raw_words)[0]) == 50
    assert helper_ran.is_set()
    assert not _live_helpers()

    def failing(words):
        raise _HelperError(f"chunk at word {words[0, 0]}")

    with pytest.raises(_HelperError):
        _chunk_map(1, 2, 50, 1, failing, _raw_words)
    assert not _live_helpers()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_chunk_map_runs_in_a_forked_child(monkeypatch):
    # a child forked after a map has none of the parent's helper threads; its
    # maps start their own instead of waiting on the parent's forever
    monkeypatch.setattr(vrng, "_WORKERS", 2)
    monkeypatch.setattr(vrng, "_CHUNK_TARGET", 1)

    def kernel(words):
        return (words,)

    want = _chunk_map(1, 2, 50, 1, kernel, _raw_words)[0]    # the helpers exist now

    def child():
        sys.exit(0 if np.array_equal(_chunk_map(1, 2, 50, 1, kernel, _raw_words)[0], want) else 1)

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    proc.join(timeout=60)
    hung = proc.is_alive()
    if hung:
        proc.kill()
        proc.join()
    assert not hung and proc.exitcode == 0
