"""Integer lattice wavenumbers and their canonical sign classification.

Modes live on Z^2 minus the origin. The upper half-plane (k2 > 0, plus the
positive k1 axis) selects the sine basis function, its negation the cosine.
All classification arithmetic is exact integer arithmetic.
"""

from __future__ import annotations

Mode = tuple[int, int]


def check_mode(k) -> Mode:
    """Validate and normalize a lattice mode to a tuple of two ints."""
    k = (int(k[0]), int(k[1]))
    if k == (0, 0):
        raise ValueError("mode (0,0) is not a valid wavenumber")
    return k


def is_plus(k: Mode) -> bool:
    """True iff k lies in the canonical upper half-plane (sine class)."""
    return k[1] > 0 or (k[1] == 0 and k[0] > 0)


def negate(k: Mode) -> Mode:
    return (-k[0], -k[1])


def perp(k: Mode) -> Mode:
    """The rotation k^perp = (-k2, k1)."""
    return (-k[1], k[0])


def dot(a: Mode, b: Mode) -> int:
    return a[0] * b[0] + a[1] * b[1]


def norm2(k: Mode) -> int:
    """Squared Euclidean norm, exact."""
    return k[0] * k[0] + k[1] * k[1]


def canonical(k: Mode) -> Mode:
    """The upper half-plane representative of {k, -k}."""
    return k if is_plus(k) else negate(k)
