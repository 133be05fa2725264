"""Spectral core: basis, pairings, and the bilinear term.

The bilinear term is checked against an independent physical-space oracle:
velocity and gradient fields are evaluated in closed form on a quadrature
grid and the advection product is projected back onto the basis.
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given

from vortexlab.lattice import ForcingGeometry, reachable_modes
from vortexlab.simulate import SimConfig, simulate
from vortexlab.spectral import (Basis, InteractionTable, SpectralField,
                                TWO_PI_SQ, _product_terms, adjoint_C,
                                build_interaction_table, inner,
                                interaction_coeff, nonlinearity_B,
                                sobolev_norm)

from conftest import (ONE_SIGNED, Z_STAR, eval_basis_mode, field_from_dict,
                      grid_integral, project_on_basis, random_fields,
                      torus_grid, traced_peak)


# ---------------------------------------------------------------- basis

def test_basis_excludes_zero_and_respects_radius():
    b = Basis.build(2.0)
    assert (0, 0) not in b
    assert all(k[0] ** 2 + k[1] ** 2 <= 4 for k in b.modes)
    # ball of radius 2 without origin: (+-1,0),(0,+-1),(+-1,+-1),(+-2,0),(0,+-2)
    assert len(b) == 12


def test_basis_stores_each_label_once():
    b = Basis.build(4.0)
    assert len(set(b.modes)) == len(b.modes)
    for k in b.modes:
        assert (-k[0], -k[1]) in b


def test_basis_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        Basis.build(0.0)


def test_laplacian_symbol(basis4):
    lam = basis4.laplacian_symbol()
    for i, k in enumerate(basis4.modes):
        assert lam[i] == k[0] ** 2 + k[1] ** 2


def test_laplacian_symbol_is_one_read_only_array(basis4):
    lam = basis4.laplacian_symbol()
    assert basis4.laplacian_symbol() is lam
    with pytest.raises(ValueError):
        lam[0] = 0.0


# ------------------------------------------------------------- pairings

def test_mode_norm_is_two_pi_squared(basis4):
    # [TRIVIAL] ||e_k||^2 = 2 pi^2, checked against direct quadrature too.
    x1, x2 = torus_grid(32)
    for k in [(1, 0), (-1, 0), (2, 1), (-2, -1), (0, 3)]:
        e = SpectralField.single_mode(basis4, k)
        assert inner(e, e) == pytest.approx(TWO_PI_SQ)
        vals = eval_basis_mode(k, x1, x2)
        assert grid_integral(vals * vals) == pytest.approx(TWO_PI_SQ)


def test_inner_matches_grid_quadrature(basis4):
    rng = np.random.default_rng(3)
    x1, x2 = torus_grid(32)
    for _ in range(5):
        f = SpectralField(basis4, rng.standard_normal(len(basis4)))
        g = SpectralField(basis4, rng.standard_normal(len(basis4)))
        fv = sum(c * eval_basis_mode(k, x1, x2)
                 for k, c in zip(basis4.modes, f.coeffs))
        gv = sum(c * eval_basis_mode(k, x1, x2)
                 for k, c in zip(basis4.modes, g.coeffs))
        assert inner(f, g) == pytest.approx(grid_integral(fv * gv), abs=1e-10)


def test_sobolev_norms(basis4):
    e = SpectralField.single_mode(basis4, (2, 1), 3.0)
    assert sobolev_norm(e) == pytest.approx(3.0 * math.sqrt(TWO_PI_SQ))
    assert sobolev_norm(e, 1.0) == pytest.approx(
        3.0 * math.sqrt(5.0 * TWO_PI_SQ))


def test_field_rejects_nonfinite(basis4):
    c = np.zeros(len(basis4))
    c[0] = np.inf
    with pytest.raises(ValueError):
        SpectralField(basis4, c)


# --------------------------------------------------- interaction scalar

def test_interaction_coeff_examples():
    # c((1,0),(1,1)) = ((1,0)^perp . (1,1)) (1 - 1/2) / 2 = 1/4
    assert interaction_coeff((1, 0), (1, 1)) == pytest.approx(0.25)
    # parallel wavevectors never interact
    assert interaction_coeff((1, 0), (2, 0)) == 0.0
    # equal norms never interact
    assert interaction_coeff((1, 2), (2, 1)) == 0.0
    # antisymmetry of the full scalar under swapping arguments
    for j, k in [((1, 0), (2, 1)), ((1, 1), (3, -2)), ((0, 2), (1, 1))]:
        assert interaction_coeff(j, k) == pytest.approx(
            interaction_coeff(k, j))


def test_interaction_coeff_rejects_zero_mode():
    with pytest.raises(ValueError):
        interaction_coeff((0, 0), (1, 1))


# ------------------------------------------- bilinear term, grid oracle

def oracle_advection(j, k, x1, x2):
    """(K(e_j) . grad) e_k evaluated pointwise from closed forms."""
    n2 = j[0] ** 2 + j[1] ** 2
    # K(e_j) = (j^perp / |j|^2) e_{-j}
    u1 = -j[1] / n2 * eval_basis_mode((-j[0], -j[1]), x1, x2)
    u2 = j[0] / n2 * eval_basis_mode((-j[0], -j[1]), x1, x2)
    if (k[1] > 0) or (k[1] == 0 and k[0] > 0):
        g1 = k[0] * np.cos(k[0] * x1 + k[1] * x2)
        g2 = k[1] * np.cos(k[0] * x1 + k[1] * x2)
    else:
        g1 = -k[0] * np.sin(k[0] * x1 + k[1] * x2)
        g2 = -k[1] * np.sin(k[0] * x1 + k[1] * x2)
    return u1 * g1 + u2 * g2


def test_bilinear_matches_grid_oracle_on_sample_pairs(basis8):
    x1, x2 = torus_grid(64)
    pairs = [((1, 0), (1, 1)), ((1, 1), (1, 0)), ((2, 1), (-1, 3)),
             ((-2, 0), (1, 1)), ((0, 1), (3, -2)), ((-1, -1), (-2, 1))]
    for j, k in pairs:
        got = nonlinearity_B(SpectralField.single_mode(basis8, j),
                             SpectralField.single_mode(basis8, k)).coeffs
        want = project_on_basis(oracle_advection(j, k, x1, x2),
                                basis8, x1, x2)
        assert np.max(np.abs(got - want)) < 1e-12, (j, k)


def test_bilinear_sparsity_two_output_modes(basis8):
    # B(e_j, e_k) is supported on at most the two labels made from k+-j.
    table = build_interaction_table(basis8)
    w = SpectralField.single_mode(basis8, (2, 1))
    v = SpectralField.single_mode(basis8, (1, 3))
    out = nonlinearity_B(w, v).coeffs
    support = {basis8.modes[i] for i in np.nonzero(out)[0]}
    assert len(support) <= 2
    allowed = {(3, 4), (-3, -4), (-1, 2), (1, -2)}
    assert support <= allowed
    assert len(table) > 0


def test_bilinear_random_fields_match_oracle(basis4):
    # Full fields, not just single-mode pairs; truncated consistently:
    # the oracle is projected onto the same basis the package truncates to.
    rng = np.random.default_rng(11)
    x1, x2 = torus_grid(64)
    w = SpectralField(basis4, rng.standard_normal(len(basis4)))
    v = SpectralField(basis4, rng.standard_normal(len(basis4)))
    got = nonlinearity_B(w, v).coeffs
    vals = np.zeros_like(x1)
    for i, j in enumerate(basis4.modes):
        if w.coeffs[i] == 0.0:
            continue
        for m, k in enumerate(basis4.modes):
            if v.coeffs[m] == 0.0:
                continue
            vals += w.coeffs[i] * v.coeffs[m] * oracle_advection(j, k, x1, x2)
    want = project_on_basis(vals, basis4, x1, x2)
    assert np.max(np.abs(got - want)) < 1e-10


# ------------------------------------------------ conservation, adjoints

def test_second_slot_skew_conserves_enstrophy(basis4):
    rng = np.random.default_rng(13)
    for _ in range(5):
        w = SpectralField(basis4, rng.standard_normal(len(basis4)))
        v = SpectralField(basis4, rng.standard_normal(len(basis4)))
        assert abs(inner(nonlinearity_B(w, v), v)) < 1e-11


def test_self_advection_conserves_energy(basis4):
    lam = basis4.laplacian_symbol()
    rng = np.random.default_rng(17)
    for _ in range(5):
        w = SpectralField(basis4, rng.standard_normal(len(basis4)))
        bw = nonlinearity_B(w, w)
        lam_inv_w = SpectralField(basis4, w.coeffs / lam)
        assert abs(inner(bw, lam_inv_w)) < 1e-11


def test_first_slot_adjoint_identity(basis4):
    # <B(u, w), v> = <C(v, w), u> for all u, v, w.
    rng = np.random.default_rng(19)
    for _ in range(5):
        u = SpectralField(basis4, rng.standard_normal(len(basis4)))
        v = SpectralField(basis4, rng.standard_normal(len(basis4)))
        w = SpectralField(basis4, rng.standard_normal(len(basis4)))
        assert inner(nonlinearity_B(u, w), v) == pytest.approx(
            inner(adjoint_C(v, w), u), abs=1e-9)


# Property versions of the three identities above, on a random radius and
# random fields. The tolerance is relative to the size of the trilinear
# form, bounded by l1 norms (which, unlike squares, do not underflow); the
# floor absorbs subnormal rounding when every field is tiny.

def _tol(*fields):
    size = TWO_PI_SQ * math.prod(np.abs(f.coeffs).sum() for f in fields)
    return 1e-13 * size + np.finfo(float).tiny


@given(random_fields(2))
def test_second_slot_skew_conserves_enstrophy_property(drawn):
    _, (w, v) = drawn
    assert abs(inner(nonlinearity_B(w, v), v)) <= _tol(w, v, v)


@given(random_fields(1))
def test_self_advection_conserves_energy_property(drawn):
    basis, (w,) = drawn
    lam_inv_w = SpectralField(basis, w.coeffs / basis.laplacian_symbol())
    assert abs(inner(nonlinearity_B(w, w), lam_inv_w)) <= _tol(w, w, w)


@given(random_fields(3))
def test_first_slot_adjoint_identity_property(drawn):
    _, (u, v, w) = drawn
    lhs = inner(nonlinearity_B(u, w), v)
    rhs = inner(adjoint_C(v, w), u)
    assert abs(lhs - rhs) <= _tol(u, v, w)


def test_table_matrix_forms_agree_with_apply(basis4):
    rng = np.random.default_rng(23)
    table = build_interaction_table(basis4)
    w = rng.standard_normal(len(basis4))
    v = rng.standard_normal(len(basis4))
    L = table.linearization(w)
    # L(w)^T v = B(w, v) - C(v, w): the transpose the adjoint steps use
    assert np.allclose(L.T @ v, table.apply(w, v) - table.adjoint_apply(v, w),
                       atol=1e-12)
    want = -table.apply(w, v) - table.apply(v, w)
    assert np.allclose(L @ v, want, atol=1e-12)


def test_stacked_linearization_is_bitwise_the_per_row_calls(basis4):
    # one bincount over shifted targets sums each bin's terms in the same
    # order as the lone call, so every matrix of the stack is bit-identical
    table, n = InteractionTable(basis4), len(basis4)  # no stack seen yet
    rng = np.random.default_rng(24)

    def check(w):
        L = table.linearization(w)
        assert L.shape == w.shape + (n,)
        for at in np.ndindex(*w.shape[:-1]):
            assert np.array_equal(L[at], table.linearization(w[at]))
        return L

    for shape in ((1,), (5,), (3, 2)):
        check(rng.standard_normal(shape + (n,)))
    # a stack larger than any seen grows the kept arrays, a smaller one
    # after it reads their prefix
    grown = check(rng.standard_normal((9, n)))
    held = grown.copy()
    check(rng.standard_normal((2, n)))
    # the result of an earlier call does not share the kept value buffer
    assert np.array_equal(grown, held)
    # a strided w: the first n columns of a (P, 2n) array
    wide = rng.standard_normal((4, 2 * n))
    assert not wide[:, :n].flags.c_contiguous
    check(wide[:, :n])
    # the forced unit vectors, as the bracket split once stacked them
    forced = [basis4.index[k] for k in sorted(Z_STAR)]
    check(np.eye(n)[forced])


def test_stacked_linearization_allocates_only_its_output():
    # after one call sizes the kept arrays, a call takes and scales in
    # place: its traced peak is the bincount's output and small objects.
    # A lone w reads the prefix of the arrays an earlier call kept.
    for radius, stack in ((3.0, (10,)), (4.0, (27,)), (3.0, ()), (4.0, ())):
        basis = Basis.build(radius)
        table, n = build_interaction_table(basis), len(basis)
        w = np.random.default_rng(25).standard_normal(stack + (n,))
        table.linearization(w)  # warm-up: grows the kept arrays if needed
        peak = traced_peak(table.linearization, w)
        assert peak <= w.size * n * 8 + 1024, (radius, stack)


@pytest.mark.parametrize("radius, live", [(1.5, 32), (3.0, 640),
                                          (4.0, 2144), (8.1, 49408)])
def test_linearization_skips_zero_rows_exactly(radius, live):
    # the rows with sym = 0 add +-0 to bins that start at +0, so the full
    # bincount over every row gives the same bits, sign bits included
    basis = Basis.build(radius)
    table, n = build_interaction_table(basis), len(basis)
    assert 2 * len(table.live[2]) == 2 * np.count_nonzero(table.sym) == live
    flat = np.concatenate((table.l * n + table.k, table.l * n + table.j))
    src = np.concatenate((table.j, table.k))
    coeff = -np.concatenate((table.sym, table.sym))
    w = np.random.default_rng(22).uniform(-1.0, 1.0, (3, n))
    w[:, ::3], w[1, 1::4] = 0.0, -0.0
    want = np.stack([np.bincount(flat, coeff * u[src], n * n).reshape(n, n)
                     for u in w])
    assert table.linearization(w).tobytes() == want.tobytes()
    for u, L in zip(w, want):
        assert table.linearization(u).tobytes() == L.tobytes()


def _seed(basis, modes):
    return np.array([k in modes for k in basis.modes])


@pytest.mark.parametrize("z_star, reached", [
    ({(0, 2), (0, -2), (1, -2), (-1, 2)}, 12), (ONE_SIGNED, 3)])
def test_closure_holds_the_lattice_reached_set(z_star, reached):
    # the Galerkin closure also couples two excited modes that are not
    # forced, so it can exceed the lattice search: 16 of 28 modes here
    table = build_interaction_table(Basis.build(3.0))
    closure = table.closure(_seed(table.basis, z_star))
    E = closure.mask
    got = reachable_modes(ForcingGeometry(frozenset(z_star)), 3.0).reached
    assert (E.sum(), len(got)) == (16, reached)
    assert E[_seed(table.basis, got)].all()
    # the least fixed point: closed on the live rows, and every mode off
    # the seed is some live row's l with j and k in it
    j, k, l, _ = table.live
    inner_rows = E[j] & E[k]
    assert E[l[inner_rows]].all()
    assert np.array_equal(E, _seed(table.basis, z_star)
                          | np.isin(np.arange(len(E)), l[inner_rows]))
    # kept read-only, and a closure is its own closure
    assert table.closure(_seed(table.basis, z_star)) is closure
    assert table.closure(E.copy()) is closure and not E.flags.writeable


@pytest.mark.parametrize("radius", [3.0, 4.0, 8.1])
def test_closure_of_canonical_forcing_is_the_ball(radius):
    table = build_interaction_table(Basis.build(radius))
    assert table.closure(_seed(table.basis, Z_STAR)) is table.whole
    assert table.whole.mask.all() and table.whole.rows is table.live


def test_linearization_on_a_closure_is_the_full_call_bitwise():
    # with w +-0 off the closure, the E x E block sums the terms of the
    # rows with j and k in E, 12,352 of the 49,408 at radius 8.1, and the
    # rest is +0; stacked calls read the kept arrays in place
    table = build_interaction_table(Basis.build(8.1))
    n = len(table.basis)
    closure = table.closure(_seed(table.basis, {(1, 0), (-1, -1)}))
    E = closure.mask
    assert (E.sum(), 2 * len(closure.rows[2]), closure.split) == (106, 12352,
                                                                  True)
    w = np.random.default_rng(31).uniform(-1.0, 1.0, (3, n))
    w[:, ~E], w[1, ::5] = -0.0, 0.0
    block = np.outer(E, E)
    for u in (w, w[0], w[:2]):
        got, want = table.linearization(u, closure), table.linearization(u)
        assert got[..., block].tobytes() == want[..., block].tobytes()
        assert not got[..., ~block].view(np.int64).any()  # +0, no -0
        assert (traced_peak(table.linearization, u, closure)
                <= u.size * n * 8 + 1024)


def test_closure_cache_keeps_one_value_per_mask_within_its_bound():
    # a fresh table, so no other test's seeds sit in its cache
    table = InteractionTable(Basis.build(3.0))
    seed = _seed(table.basis, ONE_SIGNED)
    first = table.closure(seed)
    # two seeds with one closure share one value
    wider = seed.copy()
    wider[np.argmax(first.mask & ~seed)] = True  # a mode the closure adds
    assert table.closure(wider) is first
    # a lone mode is its own closure: twelve of them overrun the bound,
    # which drops every value and never keeps more than 8
    for lone in np.eye(len(seed), dtype=bool)[:12]:
        assert table.closure(lone).mask.sum() == 1
        assert len({id(c) for c in table._closures.values()}) <= 8
    assert seed.tobytes() not in table._closures
    # a seed asked for again gives the same mask and rows, bit for bit
    again = table.closure(seed)
    assert again is not first and again.split == first.split
    for got, want in zip((again.mask, *again.rows),
                         (first.mask, *first.rows)):
        assert got.tobytes() == want.tobytes()


def test_a_closure_keeps_its_rows_and_builds_no_terms():
    # control-r8's split closure copies its 6,176 live rows, 32 B each;
    # L(w)'s gather arrays wait for a linearization, on it or on the ball
    table = InteractionTable(Basis.build(8.1))  # an empty cache
    seed = _seed(table.basis, {(1, 0), (-1, -1)})
    tracemalloc.start()
    try:
        closure = table.closure(seed)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert (len(closure.rows[2]), closure.split) == (6176, True)
    assert closure.bufs == table.whole.bufs == []
    assert kept <= 40 * 6176 + 4096


def test_table_cache_is_keyed_on_modes():
    # equal mode sets share one table even when each Basis is built afresh
    assert (build_interaction_table(Basis.build(3.0))
            is build_interaction_table(Basis.build(3.0)))


def test_table_rows_are_unordered_pairs(basis4):
    table = build_interaction_table(basis4)
    assert np.all(table.j < table.k)
    triples = set(zip(table.j.tolist(), table.k.tolist(), table.l.tolist()))
    assert len(triples) == len(table.l)


def test_table_rows_and_swaps_are_the_ordered_triples(basis4):
    # brute force over every ordered pair, as B(e_j, e_k) expands
    want = {}
    for j in basis4.modes:
        for k in basis4.modes:
            for l, a in _product_terms(j, k):
                if l in basis4:
                    key = (basis4.index[j], basis4.index[k], basis4.index[l])
                    want[key] = a
    table = build_interaction_table(basis4)
    got = {}
    for j, k, l, cjk, ckj in zip(table.j.tolist(), table.k.tolist(),
                                 table.l.tolist(), table.cjk, table.ckj):
        got[(j, k, l)] = cjk
        got[(k, j, l)] = ckj
    assert got.keys() == want.keys()
    for key, a in want.items():
        assert got[key] == pytest.approx(a, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("radius", [1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 8.1])
def test_table_rows_are_the_scalar_expansion_in_order(radius):
    # row order fixes every bincount's summation order, so the rows must be
    # the pair loop over _product_terms exactly, down to the sign bits
    basis = Basis.build(radius)
    rows, cjk = [], []
    for a, j in enumerate(basis.modes):
        for b in range(a + 1, len(basis)):
            for l, c in _product_terms(j, basis.modes[b]):
                if l in basis:
                    rows.append((a, b, basis.index[l]))
                    cjk.append(c)
    want = np.array(rows, dtype=np.intp).reshape(-1, 3).T
    table = build_interaction_table(basis)
    for got, row in zip((table.j, table.k, table.l), want):
        assert got.dtype == np.intp and np.array_equal(got, row)
    assert np.array_equal(table.cjk, cjk)
    assert np.array_equal(np.signbit(table.cjk), np.signbit(cjk))


def test_table_build_memory_is_bounded():
    # the build's peak, temporaries included, is at most twice the table
    basis = Basis.build(12.0)
    peak = traced_peak(InteractionTable, basis)
    table = InteractionTable(basis)
    own = sum(a.nbytes for a in (table.j, table.k, table.l, table.cjk,
                                 table.ckj, table.sym, *table.live))
    assert peak <= 2.0 * own


def test_table_without_triads_returns_float_zeros():
    # below radius sqrt 2 the basis is (+-1, 0), (0, +-1) and no triad closes
    table = build_interaction_table(Basis.build(1.0))
    assert len(table) == 0
    w = np.arange(1.0, 5.0)
    for out, shape in ((table.apply(w, w), (4,)),
                       (table.adjoint_apply(w, w), (4,)),
                       (table.linearization(w), (4, 4)),
                       (table.linearization(np.ones((3, 4))), (3, 4, 4))):
        assert out.dtype == np.float64 and out.shape == shape
        assert not out.any()


@pytest.mark.parametrize("radius, ordered", [(3.0, 720), (4.0, 2352),
                                             (8.1, 50784)])
def test_table_length_counts_ordered_triples(radius, ordered):
    table = build_interaction_table(Basis.build(radius))
    assert len(table) == ordered == 2 * len(table.l)


@pytest.mark.parametrize("radius, live, rows", [(3.0, 320, 360),
                                                (4.0, 1072, 1176),
                                                (8.1, 24704, 25392)])
def test_live_rows_are_the_rows_with_nonzero_sym(radius, live, rows):
    # the drift and L(w) sum these rows; the dead ones have |j| = |k|
    table = build_interaction_table(Basis.build(radius))
    keep = table.sym != 0
    assert (np.count_nonzero(keep), len(keep)) == (live, rows)
    lam = table.basis.laplacian_symbol()
    assert np.array_equal(~keep, lam[table.j] == lam[table.k])
    for got, full in zip(table.live, (table.j, table.k, table.l, table.sym)):
        assert np.array_equal(got, full[keep])


def test_simulate_drift_is_minus_self_advection(basis8):
    # one step with no noise and decay ~ 1 gives back the explicit drift
    w0 = np.random.default_rng(8).uniform(-1.0, 1.0, len(basis8))
    cfg = SimConfig(nu=1e-9, forcing=ForcingGeometry(Z_STAR), radius=8.1,
                    dt=0.5, t_final=1.0, initial=SpectralField(basis8, w0))
    traj = simulate(cfg, increments=np.zeros((2, len(Z_STAR))))
    decay = np.exp(-cfg.nu * basis8.laplacian_symbol() * cfg.dt)
    drift = (traj.states[1] / decay - w0) / cfg.dt
    want = -build_interaction_table(basis8).apply(w0, w0)
    assert np.linalg.norm(drift - want) <= 1e-13 * np.linalg.norm(want)


def test_known_triad_value(basis4):
    # B(e_(1,0), e_(1,1)) has coefficient c = 1/4 split by product-to-sum:
    # sin(a)sin(b) = (cos(a-b) - cos(a+b))/2.
    out = nonlinearity_B(SpectralField.single_mode(basis4, (1, 0)),
                         SpectralField.single_mode(basis4, (1, 1))).coeffs
    x1, x2 = torus_grid(32)
    want = project_on_basis(oracle_advection((1, 0), (1, 1), x1, x2),
                            basis4, x1, x2)
    nz = {basis4.modes[i]: out[i] for i in np.nonzero(out)[0]}
    assert nz  # the canonical forced pair does interact
    assert np.max(np.abs(out - want)) < 1e-13


@pytest.mark.parametrize("call", [
    lambda: SpectralField(Basis.build(2.0), np.zeros(3)),
    lambda: SpectralField(Basis.build(2.0), np.zeros((1, 12))),
    lambda: inner(SpectralField(Basis.build(2.0)),
                  SpectralField(Basis.build(3.0))),
    lambda: adjoint_C(SpectralField(Basis.build(3.0)),
                      SpectralField(Basis.build(2.0))),
    lambda: nonlinearity_B(SpectralField(Basis.build(2.0)),
                           SpectralField(Basis.build(2.5))),
])
def test_fields_reject_a_wrong_length_or_another_basis(call):
    with pytest.raises(ValueError, match="basis|different bases"):
        call()
