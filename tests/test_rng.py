import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vriwae.rng import (keyed_uniforms, make_stream, permutation_indices, standard_normal,
                        uniform)


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
    for seed, ids in ((-1, [0]), (0, [3, -1]), (2**64, [0]), (0, [2**64])):
        with pytest.raises(ValueError):
            keyed_uniforms(seed, ids, 2)
    top = uniform(make_stream(2**64 - 1, 3), 8)
    assert not np.array_equal(top, uniform(make_stream(2**64 - 2, 3), 8))
    assert not np.array_equal(top, uniform(make_stream(0, 3), 8))


@settings(max_examples=40, deadline=None)
@given(seed=st.one_of(st.just(0), st.integers(2**32, 2**64 - 1)),
       ids=st.lists(st.integers(0, (9 << 40) + 10**5), max_size=6),
       n=st.sampled_from([0, 1, 3, 4, 5, 1024]))
def test_keyed_uniforms_match_streams(seed, ids, n):
    # row i is stream (seed, ids[i]) from counter 0, whatever part of a
    # 4-word Philox block the previous row left unread
    got = keyed_uniforms(seed, ids, n)
    assert got.shape == (len(ids), n)
    for row, stream_id in zip(got, ids):
        assert np.array_equal(row, uniform(make_stream(seed, stream_id), n))
    assert np.array_equal(keyed_uniforms(seed, ids, n), got)


def test_normal_moments():
    # CLT bound: 3/sqrt(1e6) ~ 0.003 for the mean, similar for the variance
    x = standard_normal(make_stream(123, 5), 1_000_000)
    assert abs(x.mean()) < 0.005
    assert abs(x.var() - 1.0) < 0.01


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
