"""Noise-propagation geometry: shells, reachability, generation criterion."""
import math

import numpy as np
import pytest

from vortexlab.lattice import (ForcingGeometry, admissible, is_generating,
                               reachable_modes, span_index, symmetric_part)
from vortexlab.modes import negate

from conftest import Z_STAR


def ball(radius):
    r2 = radius * radius
    rmax = int(math.floor(radius))
    return {(a, b)
            for a in range(-rmax, rmax + 1)
            for b in range(-rmax, rmax + 1)
            if (a, b) != (0, 0) and a * a + b * b <= r2}


def assert_closed(g, res, radius):
    """Every admissible sum l + j inside the radius, l in Z0 or a shell and
    j in Z0, is reached: the search stopped at a fixed point."""
    r2 = radius * radius
    for l in set(g.z_zero).union(*res.shells):
        for j in g.z_zero:
            s = (l[0] + j[0], l[1] + j[1])
            if s != (0, 0) and s[0] ** 2 + s[1] ** 2 <= r2 and admissible(l, j):
                assert s in res.reached, (l, j, s)


def reference_reachability(g, radius):
    """The shell-to-shell recursion, uncapped: shell n+1 re-expands every mode
    of shell n, so shells overlap. Returns (shells, reached, witness_paths)."""
    r2 = radius * radius
    z_zero = sorted(g.z_zero)
    shells, parent = [], {}
    seen, prev = set(g.z_zero), set(g.z_zero)
    while True:
        shell = set()
        for l in sorted(prev):
            for j in z_zero:
                s = (l[0] + j[0], l[1] + j[1])
                if s == (0, 0) or s[0] ** 2 + s[1] ** 2 > r2:
                    continue
                if not admissible(l, j):
                    continue
                shell.add(s)
                if s not in parent and s not in g.z_zero:
                    parent[s] = (l, j)
        shells.append(shell)
        new = shell - seen
        seen |= shell
        if not new:
            break
        prev = shell
    reached = set(g.z_star).union(*shells)
    witness = {}
    for mode in reached:
        chain, cur = [], mode
        while cur in parent:
            chain.append(parent[cur])
            cur = parent[cur][0]
        witness[mode] = chain[::-1]
    return shells, reached, witness


def first_shells(shells):
    first = {}
    for n, shell in enumerate(shells):
        for m in shell:
            first.setdefault(m, n)
    return first


# ------------------------------------------------------------ basic sets

def test_symmetric_part():
    assert symmetric_part({(1, 0), (-1, 0), (2, 3)}) == {(1, 0), (-1, 0)}
    assert symmetric_part({(1, 0), (0, 1)}) == set()
    assert symmetric_part(set()) == set()


def test_forcing_geometry_derives_symmetric_part():
    g = ForcingGeometry(frozenset({(1, 0), (-1, 0), (5, 5)}))
    assert g.z_zero == frozenset({(1, 0), (-1, 0)})
    assert g.max_norm() == pytest.approx(math.sqrt(50.0))
    assert ForcingGeometry(frozenset()).max_norm() == 0.0


def test_admissible_conditions():
    # non-collinear and unequal norms
    assert admissible((1, 0), (1, 1))
    # collinear
    assert not admissible((1, 0), (2, 0))
    assert not admissible((1, 0), (-1, 0))
    # equal norms
    assert not admissible((1, 0), (0, 1))
    assert not admissible((2, 1), (1, 2))


def test_next_shell_of_canonical_forcing():
    shell = reachable_modes(ForcingGeometry(frozenset(Z_STAR)), 3.0).shells[0]
    # l=(1,0), j=(1,1) -> (2,1); l=(1,1), j=(1,0) -> (2,1); with negatives
    # and l=(1,0)+j=(-1,-1) -> (0,-1) etc.
    assert (2, 1) in shell and (-2, -1) in shell
    assert (0, 1) in shell and (0, -1) in shell
    # parallel or equal-norm sums never appear
    assert (2, 0) not in shell and (2, 2) not in shell


# ---------------------------------------------------------- reachability

def test_canonical_forcing_reaches_large_ball():
    g = ForcingGeometry(frozenset(Z_STAR))
    # the ball of radius 30 fills shells 0 to 65: a cap of 64 shells
    # stopped short at 2,808 of its 2,820 modes
    for radius in (10.0, 30.0):
        res = reachable_modes(g, radius=radius)
        assert_closed(g, res, radius)
        assert res.covers_ball(radius)
        assert res.reached == ball(radius)


def test_equal_norm_forcing_goes_nowhere():
    # {+-(1,0), +-(0,1)}: all norms equal, first shell is empty.
    g = ForcingGeometry(frozenset({(1, 0), (-1, 0), (0, 1), (0, -1)}))
    res = reachable_modes(g, radius=8.0)
    assert_closed(g, res, 8.0)
    assert res.shells[0] == set()
    assert res.reached == set(g.z_star)


def test_sublattice_forcing_stays_on_sublattice():
    g = ForcingGeometry(frozenset({(2, 0), (-2, 0), (2, 2), (-2, -2)}))
    res = reachable_modes(g, radius=10.0)
    assert_closed(g, res, 10.0)
    for k in res.reached:
        assert k[0] % 2 == 0 and k[1] % 2 == 0
    assert not res.covers_ball(2.0)


def test_witness_paths_are_valid_certificates():
    g = ForcingGeometry(frozenset(Z_STAR))
    res = reachable_modes(g, radius=6.0)
    for mode, chain in res.witness_paths.items():
        if not chain:
            assert mode in g.z_star or mode in g.z_zero
            continue
        cur = chain[0][0]
        assert cur in g.z_zero
        for l, j in chain:
            assert l == cur
            assert j in g.z_zero
            assert admissible(l, j)
            cur = (l[0] + j[0], l[1] + j[1])
        assert cur == mode


def test_search_matches_shell_recursion():
    # The search against the uncapped recursion it replaced, on symmetric,
    # asymmetric, empty-Z0 and sublattice forcings.
    rng = np.random.default_rng(14)
    candidates = [(a, b) for a in range(-4, 5) for b in range(-4, 5)
                  if (a, b) != (0, 0)]
    geometries = [{(1, 0), (2, 1)}, set(Z_STAR) | {(0, 2)},
                  {(2, 0), (-2, 0), (2, 2), (-2, -2), (1, 3)}]
    for _ in range(60):
        z = set()
        for p in rng.choice(len(candidates), size=rng.integers(1, 5),
                            replace=False):
            z |= {candidates[p], negate(candidates[p])}
        z |= {candidates[p] for p in rng.choice(len(candidates),
                                                size=rng.integers(0, 3))}
        scale = 2 if rng.random() < 0.2 else 1
        geometries.append({(scale * a, scale * b) for a, b in z})
    for i, z in enumerate(geometries):
        g = ForcingGeometry(frozenset(z))
        radius = g.max_norm() + (0.5, 4.0, 8.0)[i % 3]
        res = reachable_modes(g, radius)
        shells, reached, witness = reference_reachability(g, radius)
        assert res.reached == reached, sorted(z)
        assert res.shells[0] == shells[0]
        assert first_shells(res.shells) == first_shells(shells)
        assert res.witness_paths == witness
        # the shells are pairwise disjoint
        assert sum(map(len, res.shells)) == len(set().union(*res.shells))
    assert reachable_modes(ForcingGeometry(frozenset({(1, 0), (2, 1)})),
                           4.0).shells == [set()]


def test_radius_must_cover_forcing():
    g = ForcingGeometry(frozenset(Z_STAR))
    with pytest.raises(ValueError):
        reachable_modes(g, radius=1.0)


def test_wide_gap_forcing_with_buffered_radius():
    # Forcing on two distant coordinate rays. Coverage of a moderate ball
    # requires working room beyond the target radius.
    g = ForcingGeometry(frozenset({(6, 0), (-6, 0), (5, 0), (-5, 0),
                                   (0, 10), (0, -10), (0, 9), (0, -9)}))
    flag, reason = is_generating(g)
    assert flag, reason
    res = reachable_modes(g, radius=15.0)
    assert_closed(g, res, 15.0)
    assert res.covers_ball(12.0)


# ----------------------------------------------------------- generation

def test_generation_criterion_examples():
    assert is_generating(ForcingGeometry(frozenset(Z_STAR)))[0]

    flag, reason = is_generating(
        ForcingGeometry(frozenset({(1, 0), (-1, 0), (0, 1), (0, -1)})))
    assert not flag and "equal norms" in reason

    flag, reason = is_generating(
        ForcingGeometry(frozenset({(2, 0), (-2, 0), (2, 2), (-2, -2)})))
    assert not flag and "index-4" in reason

    flag, reason = is_generating(
        ForcingGeometry(frozenset({(1, 0), (0, 1)})))   # not symmetric
    assert not flag and "empty symmetric part" in reason

    flag, reason = is_generating(
        ForcingGeometry(frozenset({(1, 0), (-1, 0), (3, 0), (-3, 0)})))
    assert not flag and "rank-deficient" in reason


def test_generation_agrees_with_brute_force_reachability():
    rng = np.random.default_rng(0)
    candidates = [(a, b) for a in range(-4, 5) for b in range(-4, 5)
                  if (a, b) != (0, 0)]
    for _ in range(60):
        size = rng.integers(1, 5)
        picks = rng.choice(len(candidates), size=size, replace=False)
        z = set()
        for p in picks:
            k = candidates[p]
            z.add(k)
            z.add((-k[0], -k[1]))
        g = ForcingGeometry(frozenset(z))
        flag, _ = is_generating(g)
        # brute force: saturate with generous working room, then ask whether
        # a small ball is fully generated
        room = g.max_norm() + 8.0
        res = reachable_modes(g, radius=room)
        assert_closed(g, res, room)
        brute = all(k in res.reached for k in ball(2.0))
        assert flag == brute, (sorted(z), flag, brute)


def test_span_index_pinned_cases():
    assert span_index([(2, 0), (0, 2)]) == 4
    assert span_index([(1, 2), (3, 4)]) == 2
    assert span_index([(1, 1), (2, 2)]) == 0
    assert span_index([(5, 7)]) == 0
    assert span_index([]) == 0
    assert span_index(sorted(ForcingGeometry(frozenset(Z_STAR)).z_zero)) == 1


def test_span_index_is_det_and_ignores_combinations():
    rng = np.random.default_rng(3)
    for _ in range(300):
        a, b = (tuple(int(c) for c in rng.integers(-9, 10, size=2))
                for _ in range(2))
        index = span_index([a, b])
        assert index == abs(a[0] * b[1] - a[1] * b[0])
        # an integer combination of the two adds nothing to their span
        m, n = (int(c) for c in rng.integers(-5, 6, size=2))
        c = (m * a[0] + n * b[0], m * a[1] + n * b[1])
        assert span_index([a, b, c]) == index
        assert span_index([c, b, a]) == index
