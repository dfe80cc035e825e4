import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import fft as sfft

from stablelab import operators as ops
from stablelab.errors import ConvergenceError, DivergenceError, ParameterError
from stablelab.grid import TorusGrid


@pytest.fixture
def grid3():
    return TorusGrid(3, 8.0, 16)


def rand_field(grid, seed=0, complex_=False):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(grid.shape)
    if complex_:
        f = f + 1j * rng.standard_normal(grid.shape)
    return f


def test_frac_laplacian_kills_constants(grid3):
    A = ops.frac_laplacian(grid3, 1.5)
    out = A.apply(np.ones(grid3.shape))
    assert np.max(np.abs(out)) < 1e-14


def test_frac_laplacian_eigenmode(grid3):
    A = ops.frac_laplacian(grid3, 1.5)
    x = grid3.coordinates()
    k = (np.pi / 8.0) * np.array([2.0, 1.0, 0.0])
    mode = np.broadcast_to(np.exp(1j * (k[0] * x[0] + k[1] * x[1])), grid3.shape)
    expect = np.linalg.norm(k) ** 1.5
    out = A.apply(mode)
    assert np.max(np.abs(out - expect * mode)) < 1e-12 * expect


def test_frac_laplacian_alpha2_limit():
    # multiplier at alpha -> 2 approaches |k|^2 within 1e-2 relatively
    grid = TorusGrid(1, 4.0, 16)
    sym_a = ops.symbol_abs_k_alpha(grid, 1.999)
    sym_2 = grid.frequency_radius_sq()
    mask = sym_2 > 0
    rel = np.abs(sym_a[mask] - sym_2[mask]) / sym_2[mask]
    assert np.max(rel) < 1e-2


def test_self_adjointness(grid3):
    A = ops.frac_laplacian(grid3, 1.5)
    f = rand_field(grid3, 1)
    g = rand_field(grid3, 2)
    lhs = np.vdot(g, A.apply(f))
    rhs = np.vdot(A.apply(g), f)
    assert abs(lhs - rhs) < 1e-12 * abs(lhs)


def test_resolvent_zero_mode(grid3):
    R = ops.resolvent_power(grid3, 1.5, 2.5, 1.0)
    out = R.apply(np.ones(grid3.shape))
    assert np.allclose(out, 1.0 / 2.5)


def test_resolvent_inverse_pair(grid3):
    A = ops.frac_laplacian(grid3, 1.5)
    R = ops.resolvent_power(grid3, 1.5, 3.0, 1.0)
    f = rand_field(grid3, 3)
    x = R.apply(f)
    back = 3.0 * x + A.apply(x)
    assert np.linalg.norm(back - f) <= 1e-10 * np.linalg.norm(f)


def test_resolvent_gamma_validation(grid3):
    with pytest.raises(ParameterError):
        ops.resolvent_power(grid3, 1.5, 1.0, 1.5)
    with pytest.raises(ParameterError):
        ops.resolvent_power(grid3, 1.5, -1.0, 0.5)


@pytest.mark.parametrize("tau", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("mu", [1.0, 10.0])
def test_balakrishnan_quadrature_oracle(grid3, tau, mu):
    # spectral fractional power vs one-sided integral of whole resolvents
    f = rand_field(grid3, 4)
    spectral = ops.resolvent_power(grid3, 1.5, mu, tau).apply(f)
    quadrature = ops.balakrishnan_resolvent_power(grid3, 1.5, mu, tau).apply(f)
    rel = np.linalg.norm(quadrature - spectral) / np.linalg.norm(spectral)
    assert rel <= 1e-6


def test_heat_semigroup_property(grid3):
    f = rand_field(grid3, 5)
    one = ops.heat_semigroup(grid3, 1.5, 0.4).apply(
        ops.heat_semigroup(grid3, 1.5, 0.6).apply(f))
    two = ops.heat_semigroup(grid3, 1.5, 1.0).apply(f)
    assert np.linalg.norm(one - two) <= 1e-10 * np.linalg.norm(two)


def test_heat_linf_contraction(grid3):
    rng = np.random.default_rng(6)
    # smooth bounded field: random low modes, normalized to |f| <= 1
    f = rng.standard_normal(grid3.shape)
    f = ops.heat_semigroup(grid3, 1.5, 0.5).apply(f).real
    f /= np.max(np.abs(f))
    out = ops.heat_semigroup(grid3, 1.5, 0.7).apply(f)
    assert np.max(np.abs(out)) <= 1.0 + 1e-8


def test_heat_positivity(grid3):
    rng = np.random.default_rng(7)
    f = np.abs(ops.heat_semigroup(grid3, 1.5, 0.5).apply(
        rng.standard_normal(grid3.shape)).real)
    out = ops.heat_semigroup(grid3, 1.5, 1.0).apply(f).real
    assert out.min() >= -1e-8 * np.max(f)


def test_gradient_component_is_derivative():
    grid = TorusGrid(1, 4.0, 32)
    x = grid.coordinates()[0]
    f = np.sin(np.pi * x / 4.0)
    D = ops.gradient_component(grid, 0)
    out = D.apply(np.broadcast_to(f, grid.shape)).real
    expect = np.pi / 4.0 * np.cos(np.pi * x / 4.0)
    assert np.max(np.abs(out - expect.ravel())) < 1e-12


def test_dot_gradient_matches_manual(grid3):
    rng = np.random.default_rng(8)
    v = rng.standard_normal((3,) + grid3.shape)
    inner = ops.resolvent_power(grid3, 1.5, 1.0, 0.5)
    T = ops.DotGradient(v, inner)
    f = rand_field(grid3, 9)
    manual = sum(v[j] * ops.gradient_component(grid3, j).apply(inner.apply(f))
                 for j in range(3))
    assert np.allclose(T.apply(f), manual)


def test_adjoint_involution_and_pairing(grid3):
    T = ops.Compose([
        ops.PointwiseMultiplier(grid3, grid3.radius()),
        ops.gradient_component(grid3, 1),
        ops.resolvent_power(grid3, 1.5, 2.0, 0.75),
    ])
    f = rand_field(grid3, 10, complex_=True)
    g = rand_field(grid3, 11, complex_=True)
    twice = T.adjoint().adjoint()
    assert np.allclose(T.apply(f), twice.apply(f))
    lhs = np.vdot(g, T.apply(f))
    rhs = np.vdot(T.adjoint().apply(g), f)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_neumann_inverse_matches_direct():
    grid = TorusGrid(2, 4.0, 16)
    rng = np.random.default_rng(12)
    # contraction: 0.4 * heat smoothing * bounded multiplication
    C = ops.Compose([
        ops.PointwiseMultiplier(grid, 0.4 * np.cos(grid.radius())),
        ops.heat_semigroup(grid, 1.5, 0.1),
    ])
    inv = ops.NeumannInverse(C, tol=1e-13)
    f = rng.standard_normal(grid.shape)
    u = inv.apply(f)
    back = u + C.apply(u)
    assert np.linalg.norm(back - f) <= 1e-11 * np.linalg.norm(f)
    # recorded term norms decay geometrically
    norms = np.array(inv.last_term_norms)
    assert np.all(norms[1:] <= norms[:-1] * 0.45)


@settings(max_examples=60, deadline=None)
@given(c=st.one_of(st.floats(-0.9, 0.9), st.floats(1.0, 8.0),
                   st.floats(-8.0, -1.0), st.floats(0.995, 0.999)),
       p=st.sampled_from([2.0, 4.5]), seed=st.integers(0, 2**31 - 1))
def test_neumann_inverse_fails_fast_on_divergence(c, p, seed):
    # (1 + c I)^(-1) converges to f/(1+c) for |c| <= 0.9 and is refused
    # after _STALL + 1 applies, with growth ratio |c|, for |c| >= 1; for
    # c in [0.995, 0.999] it converges too slowly and runs out of terms,
    # its last term norm relative to f being c**_MAX_TERMS
    grid = TorusGrid(2, 4.0, 16)
    applies = []

    class Counted(ops.PointwiseMultiplier):
        def apply(self, data):
            applies.append(1)
            return super().apply(data)

    inv = ops.NeumannInverse(Counted(grid, c), norm_p=p)
    f = rand_field(grid, seed)
    if abs(c) <= 0.9:
        want = f / (1.0 + c)
        assert np.linalg.norm(inv.apply(f) - want) <= 1e-10 * np.linalg.norm(want)
        return
    if abs(c) < 1.0:
        with pytest.raises(ConvergenceError) as slow:
            inv.apply(f)
        assert len(applies) == ops.NeumannInverse._MAX_TERMS
        assert slow.value.last_value == pytest.approx(
            abs(c) ** ops.NeumannInverse._MAX_TERMS, rel=1e-9)
        return
    with pytest.raises(DivergenceError) as err:
        inv.apply(f)
    assert len(applies) <= ops.NeumannInverse._STALL + 1
    assert err.value.norm_estimate == pytest.approx(abs(c), rel=1e-12)


def test_norm_probe_is_lower_bound(grid3):
    R = ops.resolvent_power(grid3, 1.5, 2.0, 1.0)
    probe = R.norm_probe(n_probes=4, p=2.0, seed=13, iterations=12)
    assert probe <= 0.5 + 1e-12  # true L2 norm is 1/mu
    assert probe > 0.4


# Real data with a real, even symbol takes the half-spectrum path; the
# result must be the real part of the complex path.

REAL_PATH = settings(max_examples=25, deadline=None)
alphas = st.floats(1.01, 1.99)
sizes = st.sampled_from([8, 16])
seeds = st.integers(0, 2**31 - 1)


def assert_real_part_of_complex_path(op, f):
    real = op.apply(f)
    full = op.apply(f.astype(complex))
    assert real.dtype == np.float64
    assert np.iscomplexobj(full)
    assert np.linalg.norm(real - full.real) <= 1e-12 * np.linalg.norm(full)


@REAL_PATH
@given(alpha=alphas, t=st.floats(0.0, 2.0), mu=st.floats(0.1, 50.0),
       gamma=st.floats(0.05, 1.0), n=sizes, seed=seeds)
def test_real_path_matches_complex_path(alpha, t, mu, gamma, n, seed):
    grid = TorusGrid(3, 8.0, n)
    f = rand_field(grid, seed)
    for op in (ops.heat_semigroup(grid, alpha, t),
               ops.frac_laplacian(grid, alpha),
               ops.resolvent_power(grid, alpha, mu, gamma)):
        assert_real_part_of_complex_path(op, f)


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@REAL_PATH
@given(alpha=alphas, mu=st.floats(0.1, 50.0),
       gamma=st.floats(0.05, 1.0) | st.just(1.0), n=sizes,
       stack=st.sampled_from([(), (3,)]), seed=seeds)
def test_real_apply_is_the_out_of_place_half_product(alpha, mu, gamma, n,
                                                      stack, seed):
    # the spectrum is multiplied in place and consumed, never the input
    grid = TorusGrid(3, 8.0, n)
    axes = (-3, -2, -1)
    f = np.random.default_rng(seed).standard_normal(stack + grid.shape)
    before = f.copy()
    for op, symbol in [
            (ops.heat_semigroup(grid, alpha, 0.3),
             np.exp(-0.3 * ops.symbol_abs_k_alpha(grid, alpha))),
            (ops.resolvent_power(grid, alpha, mu, gamma),
             (mu + ops.symbol_abs_k_alpha(grid, alpha)) ** (-gamma))]:
        expect = sfft.irfftn(symbol[..., : n // 2 + 1]
                             * sfft.rfftn(f, axes=axes), s=grid.shape,
                             axes=axes)
        got = op.apply(f)
        assert got.dtype == np.float64
        assert np.array_equal(bits(got), bits(expect))
        assert np.array_equal(bits(f), bits(before))


@pytest.mark.parametrize("dim,n", [(1, 8), (2, 8), (3, 8), (3, 16), (3, 32)])
def test_half_built_resolvent_symbol_mirrors_to_the_full_one(dim, n):
    # k[-m] = -k[m] bit for bit, so mirroring the half symbol gives the
    # bits of the formula on the whole lattice; complex mu keeps that formula
    grid = TorusGrid(dim, 8.0, n)
    for alpha, mu, gamma in [(1.5, 0.01, 1.0 / 3.0), (1.5, 2.0, 1.0),
                             (1.3, 1e3, 0.5), (1.9, 5.0, 0.05),
                             (1.5, 2.0 + 0.5j, 0.5), (1.7, 1.0 - 3.0j, 1.0)]:
        old = (mu + ops.symbol_abs_k_alpha(grid, alpha)) ** (-gamma)
        got = ops.resolvent_power(grid, alpha, mu, gamma).symbol
        assert got.shape == grid.shape and got.dtype == old.dtype
        assert np.array_equal(bits(got), bits(old))


@REAL_PATH
@given(n=sizes, seed=seeds)
def test_real_path_for_symmetrised_random_symbol(n, seed):
    grid = TorusGrid(2, 4.0, n)
    g = rand_field(grid, seed + 1)
    even = g + np.roll(g[::-1, ::-1], 1, axis=(0, 1))  # g(k) + g(-k)
    assert_real_part_of_complex_path(ops.FourierMultiplier(grid, even),
                                     rand_field(grid, seed))


@REAL_PATH
@given(n=sizes, j=st.integers(0, 2), seed=seeds)
def test_non_hermitian_symbols_keep_complex_path(n, j, seed):
    grid = TorusGrid(3, 8.0, n)
    f = rand_field(grid, seed)
    odd = rand_field(grid, seed + 1)  # real but, almost surely, not even
    for op in (ops.gradient_component(grid, j),
               ops.FourierMultiplier(grid, odd)):
        out = op.apply(f)
        assert np.iscomplexobj(out)
        assert np.array_equal(
            out, sfft.ifftn(op.symbol * sfft.fftn(f.astype(complex))))


# The dtype rule of the algebra: real data in gives real data out whenever
# every part is real; gradients keep the complex i*k_j symbol.  Trees are
# drawn as nested specs and built with a bound on their L^2 norm, so that
# every Neumann node can be scaled to a contraction.

TREES = settings(max_examples=30, deadline=None)
REAL_LEAVES = ("heat", "resolvent", "pointwise")
GRADIENT_LEAVES = ("gradient", "dot_gradient")
coefficients = st.floats(0.25, 2.0) | st.floats(-2.0, -0.25)


def trees(leaves, depth=2):
    leaf = st.sampled_from(leaves)
    if depth == 0:
        return leaf
    kids = trees(leaves, depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.just("compose"), st.lists(kids, min_size=1, max_size=3)),
        st.tuples(st.just("affine"),
                  st.lists(st.tuples(coefficients, kids), min_size=1,
                           max_size=3)),
        st.tuples(st.just("neumann"), kids))


def has_gradient(spec):
    if isinstance(spec, str):
        return spec in GRADIENT_LEAVES
    kind, parts = spec
    if kind == "neumann":
        return has_gradient(parts)
    return any(has_gradient(p[1] if kind == "affine" else p) for p in parts)


def build(spec, grid, rng, complex_values=False):
    """The handle of a tree spec and a bound on its L^2 operator norm."""
    if spec == "heat":
        return ops.heat_semigroup(grid, 1.5, rng.uniform(0.0, 1.0)), 1.0
    if spec == "resolvent":
        return ops.resolvent_power(grid, 1.5, rng.uniform(1.0, 5.0),
                                   rng.uniform(0.1, 1.0)), 1.0
    if spec == "pointwise":
        values = rng.uniform(-1.0, 1.0, grid.shape)
        if complex_values:
            values = values * np.exp(2j * np.pi * rng.random(grid.shape))
        return ops.PointwiseMultiplier(grid, values), 1.0
    k_max = float(np.max(np.abs(grid.axis_frequencies())))
    if spec == "gradient":
        return ops.gradient_component(grid, int(rng.integers(grid.dim))), k_max
    if spec == "dot_gradient":
        v = rng.uniform(-1.0, 1.0, (grid.dim,) + grid.shape)
        return (ops.DotGradient(v, ops.resolvent_power(grid, 1.5, 1.0, 1.0)),
                grid.dim * k_max)
    kind, parts = spec
    if kind == "compose":
        built = [build(p, grid, rng, complex_values) for p in parts]
        return (ops.Compose([op for op, _ in built]),
                float(np.prod([b for _, b in built])))
    if kind == "affine":
        built = [(c,) + build(p, grid, rng, complex_values) for c, p in parts]
        return (ops.Affine([(c, op) for c, op, _ in built]),
                sum(abs(c) * b for c, _, b in built))
    op, bound = build(parts, grid, rng, complex_values)
    return ops.NeumannInverse(ops.Affine([(0.25 / max(bound, 1.0), op)]),
                              tol=1e-14), 4.0 / 3.0


@TREES
@given(spec=trees(REAL_LEAVES), n=sizes, seed=seeds)
def test_real_trees_keep_real_data_real(spec, n, seed):
    grid = TorusGrid(2, 4.0, n)
    op, bound = build(spec, grid, np.random.default_rng(seed))
    f = rand_field(grid, seed)
    real = op.apply(f)
    full = op.apply(f.astype(complex))
    assert real.dtype == np.float64
    assert (np.linalg.norm(real - full.real)
            <= 1e-12 * bound * np.linalg.norm(f))


@TREES
@given(spec=trees(REAL_LEAVES + GRADIENT_LEAVES), n=sizes, seed=seeds)
def test_trees_with_gradients_stay_complex(spec, n, seed):
    assume(has_gradient(spec))
    grid = TorusGrid(2, 4.0, n)
    op, bound = build(spec, grid, np.random.default_rng(seed))
    f = rand_field(grid, seed)
    out = op.apply(f)
    assert np.iscomplexobj(out)
    full = op.apply(f.astype(complex))
    assert np.linalg.norm(out - full) <= 1e-12 * bound * np.linalg.norm(f)


inners = st.sampled_from(["one", "resolvent", "heat", "complex_resolvent"])


def make_inner(grid, kind, rng):
    if kind == "one":
        return ops.FourierMultiplier(grid, 1.0)
    if kind == "resolvent":
        return ops.resolvent_power(grid, 1.5, rng.uniform(0.5, 5.0),
                                   rng.uniform(0.1, 1.0))
    if kind == "heat":
        return ops.heat_semigroup(grid, 1.5, rng.uniform(0.0, 1.0))
    return ops.resolvent_power(grid, 1.5, complex(rng.uniform(0.5, 5.0),
                                                  rng.uniform(-5.0, 5.0)),
                               rng.uniform(0.1, 1.0))


@TREES
@given(kind=inners, n=sizes, dim=st.integers(1, 3), seed=seeds,
       complex_data=st.booleans())
def test_dot_gradient_is_per_axis_sum(kind, n, dim, seed, complex_data):
    grid = TorusGrid(dim, 4.0, n)
    rng = np.random.default_rng(seed)
    inner = make_inner(grid, kind, rng)
    v = rng.standard_normal((dim,) + grid.shape)
    f = rand_field(grid, seed, complex_=complex_data)
    manual = sum(v[j] * ops.gradient_component(grid, j).apply(inner.apply(f))
                 for j in range(dim))
    out = ops.DotGradient(v, inner).apply(f)
    assert np.linalg.norm(out - manual) <= 1e-12 * np.linalg.norm(manual)


def assert_adjoint_pairing(op, f, g):
    lhs = np.vdot(g, op.apply(f))
    rhs = np.vdot(op.adjoint().apply(g), f)
    scale = max(np.linalg.norm(g) * np.linalg.norm(op.apply(f)),
                np.linalg.norm(op.adjoint().apply(g)) * np.linalg.norm(f))
    assert abs(lhs - rhs) <= 1e-12 * scale


@TREES
@given(kind=inners, n=sizes, dim=st.integers(1, 3), seed=seeds)
def test_dot_gradient_adjoint_pairing(kind, n, dim, seed):
    grid = TorusGrid(dim, 4.0, n)
    rng = np.random.default_rng(seed)
    v = (rng.standard_normal((dim,) + grid.shape)
         + 1j * rng.standard_normal((dim,) + grid.shape))
    op = ops.DotGradient(v, make_inner(grid, kind, rng))
    assert_adjoint_pairing(op, rand_field(grid, seed, complex_=True),
                           rand_field(grid, seed + 1, complex_=True))


@TREES
@given(spec=trees(REAL_LEAVES + GRADIENT_LEAVES), n=sizes, seed=seeds)
def test_random_tree_adjoint_pairing(spec, n, seed):
    grid = TorusGrid(2, 4.0, n)
    op, _ = build(spec, grid, np.random.default_rng(seed), complex_values=True)
    assert_adjoint_pairing(op, rand_field(grid, seed, complex_=True),
                           rand_field(grid, seed + 1, complex_=True))


@TREES
@given(kind=inners, n=sizes, dim=st.integers(1, 3), seed=seeds,
       members=st.integers(2, 3), complex_data=st.booleans())
def test_dot_gradient_stack_matches_members(kind, n, dim, seed, members,
                                            complex_data):
    # the T shape b^(1/p).grad inner |b|^(1/p'): a stack of fields takes
    # one call, transformed over the last dim axes only
    grid = TorusGrid(dim, 4.0, n)
    rng = np.random.default_rng(seed)
    op = ops.Compose([
        ops.DotGradient(rng.standard_normal((dim,) + grid.shape),
                        make_inner(grid, kind, rng)),
        ops.PointwiseMultiplier(grid, rng.uniform(0.0, 1.0, grid.shape))])
    stack = np.stack([rand_field(grid, seed + m, complex_=complex_data)
                      for m in range(members)])
    out = op.apply(stack)
    for m in range(members):
        assert np.array_equal(out[m].view(np.int64),
                              op.apply(stack[m]).view(np.int64))


# Two pocketfft workers on lattices of 64^3 points or more: the same
# 1-D transforms run, split between the threads, so the bits stay.

def bits(arr):
    return np.ascontiguousarray(arr).view(np.int64)


def every_transform_path(grid, data, rng):
    """Outputs of the real and complex multiplier paths, DotGradient and,
    for one field, real_gradient."""
    resolvent = ops.resolvent_power(grid, 1.5, 1.0, 0.5)
    dot = ops.DotGradient(rng.standard_normal((grid.dim,) + grid.shape),
                          ops.heat_semigroup(grid, 1.5, 0.1))
    outs = [resolvent.apply(data), resolvent.apply(data.astype(complex)),
            dot.apply(data)]
    if data.shape == grid.shape:
        outs.append(ops.real_gradient(grid, data))
    return outs


@settings(max_examples=4, deadline=None)
@given(n=st.sampled_from([64, 66, 72]), fields=st.integers(1, 3),
       seed=seeds)
@example(n=128, fields=1, seed=0)
def test_two_fft_workers_give_the_bits_of_one(n, fields, seed):
    grid = TorusGrid(3, 8.0, n)
    assert ops._fft_workers(grid) == 2
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(((fields,) if fields > 1 else ()) + grid.shape)
    two = every_transform_path(grid, data, np.random.default_rng(seed))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ops, "_fft_workers", lambda grid: 1)
        one = every_transform_path(grid, data, np.random.default_rng(seed))
    assert len(two) == len(one) == (4 if fields == 1 else 3)
    for got, ref in zip(two, one):
        assert got.dtype == ref.dtype
        assert np.array_equal(bits(got), bits(ref))


class _RecordedFFT:
    """scipy.fft with the ``workers`` of every call recorded."""

    def __init__(self):
        self.workers = []

    def __getattr__(self, name):
        fn = getattr(sfft, name)

        def recorded(*args, **kwargs):
            self.workers.append(kwargs.get("workers"))
            return fn(*args, **kwargs)

        return recorded


@pytest.mark.parametrize("n, fields, expect", [
    (32, 4, 1),
    (32, 8, 1),  # 64^3 points in the stack, 32^3 per field
    (64, 1, 2)])
def test_fft_workers_follow_the_points_per_field(monkeypatch, n, fields,
                                                 expect):
    grid = TorusGrid(3, 8.0, n)
    data = np.random.default_rng(0).standard_normal(
        ((fields,) if fields > 1 else ()) + grid.shape)
    recorded = _RecordedFFT()
    monkeypatch.setattr(ops, "sfft", recorded)
    every_transform_path(grid, data, np.random.default_rng(0))
    ops.even_convolution(grid, rand_field(grid, 1))
    # rfftn/irfftn, fftn/ifftn, fftn + 3 ifftn, [rfftn + 3 irfftn], fftn
    assert len(recorded.workers) == (2 + 2 + 4 + 1 if fields > 1
                                     else 2 + 2 + 4 + 4 + 1)
    assert set(recorded.workers) == {expect}
