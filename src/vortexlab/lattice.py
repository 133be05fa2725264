"""Noise-propagation sets on the integer lattice and the nondegeneracy test.

The symmetric part of a forcing set spreads through the quadratic nonlinearity
in shells: a new mode l+j is admissible when the step j and the current mode l
are non-collinear and have unequal Euclidean norm. Saturating that recursion
inside a truncation radius yields the set of modes the noise can reach, and
the generation criterion (unimodular integer span plus two unequal norms)
characterizes when it reaches everything.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .modes import Mode, check_mode, dot, negate, norm2, perp
from .spectral import Basis


def symmetric_part(z_star: set[Mode]) -> set[Mode]:
    """The symmetric part Z* intersected with -Z*."""
    z_star = {check_mode(k) for k in z_star}
    return {k for k in z_star if negate(k) in z_star}


@dataclass(frozen=True)
class ForcingGeometry:
    """A finite forced mode set with its derived symmetric part."""

    z_star: frozenset
    z_zero: frozenset = field(init=False)

    def __post_init__(self):
        z_star = frozenset(check_mode(k) for k in self.z_star)
        object.__setattr__(self, "z_star", z_star)
        object.__setattr__(self, "z_zero", frozenset(symmetric_part(set(z_star))))

    def max_norm(self) -> float:
        if not self.z_star:
            return 0.0
        return max(math.sqrt(norm2(k)) for k in self.z_star)


def admissible(l: Mode, j: Mode) -> bool:
    """Both propagation conditions, on exact integers: l^perp.j != 0, |j| != |l|."""
    return dot(perp(l), j) != 0 and norm2(j) != norm2(l)


@dataclass
class ReachabilityResult:
    shells: list  # list[set[Mode]], disjoint: modes first made at step n
    reached: set  # union of shells and z_star
    witness_paths: dict  # mode -> list of (l, j) generation steps

    def covers_ball(self, radius: float) -> bool:
        return self.reached.issuperset(Basis.build(radius).modes)


def reachable_modes(geometry: ForcingGeometry,
                    radius: float) -> ReachabilityResult:
    """Breadth-first search of the shell recursion restricted to |k| <= radius.

    Shell 0 holds the admissible sums of two modes of Z0 (empty when Z0 is);
    shell n+1 holds the admissible sums l+j, l in shell n but not in Z0 and
    j in Z0, that no earlier shell holds. The shells are disjoint and each
    mode is expanded once, so the finite ball ends the search; there is no
    cap. Modes generated outside the radius are discarded (truncation
    semantic). Witness paths record the first-found (l, j) generation step
    under lexicographic iteration, giving a reproducible certificate chain.
    """
    if geometry.z_star and radius < geometry.max_norm():
        raise ValueError("radius must cover the forcing set")
    r2 = radius * radius
    z_zero = sorted(geometry.z_zero)
    shells: list[set[Mode]] = []
    parent: dict[Mode, tuple[Mode, Mode]] = {}
    frontier = z_zero
    generated: set[Mode] = set()
    while frontier or not shells:
        shell = set()
        for l in frontier:
            for j in z_zero:
                s = (l[0] + j[0], l[1] + j[1])
                if (s == (0, 0) or norm2(s) > r2 or s in generated
                        or not admissible(l, j)):
                    continue
                shell.add(s)
                if s not in parent and s not in geometry.z_zero:
                    parent[s] = (l, j)
        shells.append(shell)
        generated |= shell
        # a mode of Z0 makes only sums that shell 0 already holds
        frontier = sorted(shell - geometry.z_zero)

    reached = set(geometry.z_star) | generated

    witness: dict[Mode, list[tuple[Mode, Mode]]] = {}
    for mode in reached:
        chain = []
        cur = mode
        while cur in parent:
            l, j = parent[cur]
            chain.append((l, j))
            cur = l
        chain.reverse()
        witness[mode] = chain
    return ReachabilityResult(shells=shells, reached=reached,
                              witness_paths=witness)


def span_index(vectors: list[Mode]) -> int:
    """Index of the integer lattice spanned by vectors inside Z^2.

    The gcd of all 2x2 minors: 0 when the span has rank < 2, 1 exactly when
    the vectors generate Z^2.
    """
    return math.gcd(*(a[0] * b[1] - a[1] * b[0]
                      for a, b in itertools.combinations(vectors, 2)))


def is_generating(geometry: ForcingGeometry) -> tuple[bool, str]:
    """Nondegeneracy criterion: unimodular integer span and two unequal norms.

    Returns (flag, reason). The reason names the failed condition(s) when the
    geometry is degenerate.
    """
    z_zero = sorted(geometry.z_zero)
    if not z_zero:
        return False, "empty symmetric part"
    reasons = []
    index = span_index(z_zero)
    if index != 1:
        if index == 0:
            reasons.append("does not generate Z^2_0 (rank-deficient span)")
        else:
            reasons.append(
                f"does not generate Z^2_0 (index-{index} sublattice)")
    norms = {norm2(k) for k in z_zero}
    if len(norms) < 2:
        reasons.append("equal norms")
    if reasons:
        return False, " and ".join(reasons)
    return True, "generating"
