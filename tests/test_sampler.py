import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from stablelab import _ks, kernels, sampler
from stablelab.errors import CapacityError, ParameterError
from stablelab.sampler import (IncrementBatch, StableParams,
                               empirical_char_function, sample_increments,
                               sample_subordinator)


def test_params_validation():
    with pytest.raises(ParameterError):
        StableParams(alpha=2.0, dim=3, seed=0)
    with pytest.raises(ParameterError):
        StableParams(alpha=1.5, dim=0, seed=0)
    with pytest.raises(ParameterError):
        sample_increments(StableParams(1.5, 3, 0), dt=-1.0, n=10)
    with pytest.raises(CapacityError):
        sample_increments(StableParams(1.5, 3, 0), dt=1.0, n=2**30)


def test_determinism_same_seed():
    p = StableParams(alpha=1.5, dim=3, seed=20240817)
    a = sample_increments(p, 0.5, 2048)
    b = sample_increments(p, 0.5, 2048)
    np.testing.assert_array_equal(a.values, b.values)
    c = sample_increments(StableParams(1.5, 3, 20240818), 0.5, 2048)
    assert not np.array_equal(a.values, c.values)


def test_empirical_mean_near_zero():
    # alpha > 1 so the mean exists and is zero by symmetry
    p = StableParams(alpha=1.5, dim=3, seed=11)
    batch = sample_increments(p, 1.0, 10**5)
    mean = batch.values.mean(axis=0)
    se = batch.values.std(axis=0, ddof=1) / np.sqrt(len(batch.values))
    assert np.all(np.abs(mean) <= 3.0 * se)


def test_char_function_matches_exponent():
    # E Re exp(i k . dZ) -> exp(-dt |k|^alpha) at |k| = 1, dt = 1
    p = StableParams(alpha=1.5, dim=3, seed=5)
    batch = sample_increments(p, 1.0, 10**5)
    est, se = empirical_char_function(batch.values, [1.0, 0.0, 0.0])
    assert abs(est.real - np.exp(-1.0)) <= 3.0 * se
    assert abs(est.imag) <= 3.0 * se


def test_subordinator_laplace_transform():
    s = sample_subordinator(0.75, 1.0, 10**5, seed=42)
    assert np.all(s > 0)
    transformed = np.exp(-s)
    est = transformed.mean()
    se = transformed.std(ddof=1) / np.sqrt(len(s))
    assert abs(est - np.exp(-1.0)) <= 3.0 * se


def test_subordinator_edge_cases():
    assert sample_subordinator(0.75, 1.0, 0, seed=1).size == 0
    with pytest.raises(ParameterError):
        sample_subordinator(0.4, 1.0, 10, seed=1)
    with pytest.raises(ParameterError):
        sample_subordinator(0.75, 0.0, 10, seed=1)


def test_subordinator_scaling():
    # S_dt equals dt^(1/sigma) S_1 in law; compare upper quantiles
    a = sample_subordinator(0.75, 2.0, 20000, seed=3)
    b = 2.0 ** (1 / 0.75) * sample_subordinator(0.75, 1.0, 20000, seed=4)
    ks = stats.ks_2samp(a, b)
    assert ks.pvalue > 0.01


def test_marginal_ks_against_fourier_cdf():
    p = StableParams(alpha=1.5, dim=2, seed=9)
    batch = sample_increments(p, 1.0, 10**4)
    cdf = kernels.stable_marginal_cdf(1.5)
    res = stats.kstest(batch.values[:, 0], cdf)
    assert res.pvalue > 0.01


# D values that reach every branch of _ks._kolmogn_sf at each n: 1 at or
# below n D = 1 (scipy's low Ruben-Gambino end), Pelz-Good (with its
# underflow cut at n = 200000, and inside scipy's Durbin window
# n D^1.5 <= 1.4 at n = 10000), 2 * smirnov from n D^2 = 2.2, and 0 from
# n D^2 = 370 (the last double below it, the first at or above it, and
# one further above), up to scipy's D >= 0.5, high Ruben-Gambino and
# D >= 1 branches
_KS_BRANCH_POINTS = {
    10000: [3e-5, 8e-5, 1e-4, 0.001, 0.0026, 0.0027, 0.0028, 0.01, 0.0148,
            0.0149, 0.1, 0.19235384061671343, 0.19235384061671346, 0.1924,
            0.2, 0.6, 0.99995, 1.0],
    200000: [3e-6, 5e-6, 8e-6, 1e-4, 0.001, 0.0033, 0.004,
             0.04301162633521313, 0.04301162633521314, 0.0431, 0.05, 0.6,
             0.999997],
}


@pytest.mark.parametrize("n", sorted(_KS_BRANCH_POINTS))
def test_ks_survival_function_is_scipys_bit_for_bit(n):
    # plus a seeded grid below n = 100000, where 2 * smirnov is cheap;
    # inside scipy's Durbin-matrix window (n <= 100000, n D > 1 and
    # n D^1.5 <= 1.4) Pelz-Good stands in for it, to 1e-12, where
    # sf >= 1 - 5e-7
    rng = np.random.default_rng(n)
    grid = [] if n > 100000 else [*rng.uniform(0.0, 0.03, 40),
                                  *10.0 ** rng.uniform(-6.0, 0.0, 40)]
    for d in _KS_BRANCH_POINTS[n] + grid:
        got = float(_ks._kolmogn_sf(n, np.float64(d)))
        want = stats.distributions.kstwo.sf(d, n)
        if n <= 100000 and n * d > 1.0 and n * np.asarray(d) ** 1.5 <= 1.4:
            assert abs(got - want) <= 1e-12, d
        else:
            assert got == want, d


def test_ks_refuses_fewer_than_10000_points():
    cdf = kernels.stable_marginal_cdf(1.5)
    with pytest.raises(ParameterError, match="n >= 10000, not 9999"):
        _ks.kstest_pvalue(np.zeros(9999), cdf)


def test_kstest_pvalue_is_scipys_on_the_lab_marginals():
    cdf = kernels.stable_marginal_cdf(1.5)
    for seed in range(1, 21):
        x = sample_increments(StableParams(1.5, 3, seed), 1.0, 10**4).values
        assert (_ks.kstest_pvalue(x[:, 0], cdf)
                == stats.kstest(x[:, 0], cdf).pvalue), seed


def test_scaling_self_similarity_of_increments():
    # dt = c batch equals c^(1/alpha)-scaled dt = 1 batch in law
    c = 0.3
    a = sample_increments(StableParams(1.5, 2, 21), c, 20000).values[:, 0]
    b = sample_increments(StableParams(1.5, 2, 22), 1.0, 20000).values[:, 0]
    res = stats.ks_2samp(a, c ** (1 / 1.5) * b)
    assert res.pvalue > 0.01


def test_isotropy_under_rotation():
    p = StableParams(alpha=1.5, dim=3, seed=31)
    batch = sample_increments(p, 1.0, 10**5)
    rng = np.random.default_rng(17)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    rotated = batch.values @ q.T
    for kappa in ([0.7, 0.0, 0.0], [0.3, -0.5, 0.9]):
        e1, s1 = empirical_char_function(batch.values, kappa)
        e2, s2 = empirical_char_function(rotated, kappa)
        assert abs(e1 - e2) <= 3.0 * (s1 + s2)


def test_batch_shape_contract():
    p = StableParams(alpha=1.2, dim=4, seed=2)
    batch = sample_increments(p, 0.1, 17)
    assert batch.values.shape == (17, 4)
    assert np.all(np.isfinite(batch.values))
    with pytest.raises(ParameterError):
        IncrementBatch(p, 0.1, np.zeros((3, 3)))


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(1.01, 1.99), dt=st.floats(1e-3, 2.0),
       seed=st.integers(0, 2**32 - 1))
@example(alpha=4.0 / 3.0, dt=0.5, seed=0)  # integer powers 2 and 3
@example(alpha=1.984375, dt=1.0, seed=1)  # factors of A(theta) underflow
def test_increments_match_closed_form_bit_for_bit(alpha, dt, seed):
    # the in-place evaluation keeps the closed form's operations and order
    # wherever its factors are normal numbers, and the rearranged form's
    # elsewhere
    n, dim = 64, 3
    rng = sampler._rng_for(seed, "increments")
    sigma = alpha / 2.0
    theta = rng.uniform(0.0, np.pi, size=n)
    expo = rng.standard_exponential(size=n)
    num = (np.sin(sigma * theta) ** (sigma / (1.0 - sigma))
           * np.sin((1.0 - sigma) * theta))
    den = np.sin(theta) ** (1.0 / (1.0 - sigma))
    tiny = np.finfo(float).tiny
    lost = (num < tiny) | (den < tiny)
    with np.errstate(divide="ignore", invalid="ignore"):
        closed = (num / den / expo) ** ((1.0 - sigma) / sigma)
    rearranged = (np.sin(sigma * theta)
                  * (np.sin((1.0 - sigma) * theta) / expo) ** ((1.0 - sigma) / sigma)
                  / np.sin(theta) ** (1.0 / sigma))
    a = np.where(lost, rearranged, closed)
    clock = dt ** (2.0 / alpha) * a
    normals = rng.standard_normal(size=(n, dim))
    expected = np.sqrt(2.0 * clock)[:, None] * normals
    got = sample_increments(StableParams(alpha, dim, seed), dt, n).values
    np.testing.assert_array_equal(got, expected)


@st.composite
def _rows_and_block(draw):
    n = draw(st.integers(1, 400))
    return n, draw(st.one_of(st.sampled_from([1, n]), st.integers(1, n)))


@settings(max_examples=30, deadline=None)
@given(sizes=_rows_and_block(), dim=st.integers(1, 3),
       alpha=st.floats(1.01, 1.99), seed=st.integers(0, 2**32 - 1))
@example(sizes=(200, 1), dim=3, alpha=1.984375, seed=1)  # rearranged form
@example(sizes=(200, 64), dim=3, alpha=1.984375, seed=1)
@example(sizes=(200, 200), dim=2, alpha=1.984375, seed=5)
@example(sizes=(2000, 977), dim=3, alpha=1.984375, seed=1)  # partial last
@example(sizes=(977, 977), dim=1, alpha=1.5, seed=3)
def test_increment_blocks_replay_the_one_shot_batch(sizes, dim, alpha, seed):
    # the buffered stream: every block overwrites the one scratch set
    n, rows = sizes
    params = StableParams(alpha, dim, seed)
    stream = sampler._increment_stream(params, 0.7, n, rows)
    scratch = stream[-1]
    blocks = []
    for r0 in range(0, n, rows):
        block = sampler._fill_increments(stream, min(rows, n - r0))
        assert np.shares_memory(block, scratch[0])
        blocks.append(block.copy())
    assert [len(b) for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
    assert 1 <= len(blocks[-1]) <= rows
    got = np.concatenate(blocks)
    want = sample_increments(params, 0.7, n).values
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=20, deadline=None)
@given(paths=st.integers(1, 60), block=st.integers(1, 60),
       steps=st.integers(1, 9), dim=st.integers(1, 3),
       alpha=st.floats(1.01, 1.99), seed=st.integers(0, 2**32 - 1),
       chunk=st.integers(1, 61), spare=st.integers(0, 8))
@example(paths=60, block=7, steps=9, dim=3, alpha=1.984375, seed=1,
         chunk=7, spare=0)
@example(paths=60, block=7, steps=9, dim=3, alpha=1.984375, seed=1,
         chunk=3, spare=5)  # chunks of 3, 3 and a partial 1 per block
@example(paths=23, block=10, steps=9, dim=3, alpha=1.5, seed=2,
         chunk=1, spare=8)  # one path per chunk
def test_slabs_in_two_buffers_are_the_batch_transposed(paths, block, steps,
                                                       dim, alpha, seed,
                                                       chunk, spare):
    # integrate's layout: block j of paths is written to buffer j % 2 as
    # (steps, dim, paths), and step k reads the rows slab[k]; the stream's
    # scratch holds `chunk` whole paths and up to steps - 1 rows more, so
    # it may be smaller than a block
    n = paths * steps
    params = StableParams(alpha, dim, seed)
    rows = chunk * steps + min(spare, steps - 1)
    stream = sampler._increment_stream(params, 0.3, n, rows)
    buffers = np.full((2, min(block, paths) * steps * dim), np.nan)
    want = sample_increments(params, 0.3, n).values.reshape(paths, steps, dim)
    for j, p0 in enumerate(range(0, paths, block)):
        width = min(block, paths - p0)
        slab = buffers[j % 2, :steps * dim * width].reshape(steps, dim, width)
        got = sampler._fill_slab(stream, slab)
        assert got is slab
        expect = want[p0:p0 + width].transpose(1, 2, 0)
        assert np.array_equal(got.view(np.int64), expect.view(np.int64))


def test_a_slab_needs_scratch_for_one_path():
    params = StableParams(1.5, 3, 0)
    stream = sampler._increment_stream(params, 0.3, 40, 4)
    with pytest.raises(ParameterError, match="fewer rows than a path"):
        sampler._fill_slab(stream, np.empty((5, 3, 8)))
    sampler._fill_slab(stream, np.empty((4, 3, 10)))


def test_capacity_bounds_the_scratch_not_the_batch(monkeypatch):
    # the noise of 200 x 3 values is drawn through a scratch of 20 x 3
    monkeypatch.setattr(sampler, "_MAX_VALUES", 60)
    params = StableParams(1.5, 3, 4)
    with pytest.raises(CapacityError):
        sampler._increment_stream(params, 0.3, 200, 21)
    with pytest.raises(CapacityError):
        sample_increments(params, 0.3, 200)
    stream = sampler._increment_stream(params, 0.3, 200, 20)
    slab = sampler._fill_slab(stream, np.empty((5, 3, 40)))
    monkeypatch.undo()
    want = sample_increments(params, 0.3, 200).values
    assert np.array_equal(slab, want.reshape(40, 5, 3).transpose(1, 2, 0))


def test_the_increment_stream_allocates_no_block_sized_array():
    # the buffers are the caller's: a block draws nothing of its own size
    # but the Kanter underflow mask
    params = StableParams(1.5, 3, 11)
    rows = 50_000
    stream = sampler._increment_stream(params, 0.1, 4 * rows, rows)
    sampler._fill_increments(stream, rows)
    tracemalloc.start()
    try:
        sampler._fill_increments(stream, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * rows  # under one float64 array of the block's rows


def test_rearranged_kanter_form_matches_closed_form():
    # the underflow-safe form is the closed form raised to (1-sigma)/sigma
    sigma = 0.8
    theta = np.linspace(0.2, np.pi - 0.2, 101)
    expo = np.linspace(0.05, 5.0, 101)
    a = (np.sin(sigma * theta) ** (sigma / (1.0 - sigma))
         * np.sin((1.0 - sigma) * theta)
         / np.sin(theta) ** (1.0 / (1.0 - sigma)))
    closed = (a / expo) ** ((1.0 - sigma) / sigma)
    rearranged = (np.sin(sigma * theta)
                  * (np.sin((1.0 - sigma) * theta) / expo) ** ((1.0 - sigma) / sigma)
                  / np.sin(theta) ** (1.0 / sigma))
    np.testing.assert_allclose(rearranged, closed, rtol=1e-12)


def test_increments_near_alpha_two_are_finite_with_the_right_law():
    # sigma = 0.995: sin(theta)^200 underflows for theta within 0.03 of 0 or pi
    p = StableParams(alpha=1.99, dim=3, seed=5)
    batch = sample_increments(p, 1.0, 10**5)
    assert np.all(np.isfinite(batch.values))
    est, se = empirical_char_function(batch.values, [1.0, 0.0, 0.0])
    assert abs(est.real - np.exp(-1.0)) <= 3.0 * se
    assert abs(est.imag) <= 3.0 * se
    s = sample_subordinator(0.995, 1.0, 10**5, seed=42)
    assert np.all(np.isfinite(s)) and np.all(s > 0)
    transformed = np.exp(-s)
    se = transformed.std(ddof=1) / np.sqrt(len(s))
    assert abs(transformed.mean() - np.exp(-1.0)) <= 3.0 * se
