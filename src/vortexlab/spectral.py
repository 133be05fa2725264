"""Real Fourier basis, spectral fields, Biot-Savart, and the bilinear term.

Basis functions are unnormalized sines and cosines on the 2-pi torus, so
every basis function has squared L2 norm 2*pi^2 and the inner product of two
fields is 2*pi^2 times the coefficient dot product. The advective bilinear
term B(w, v) = (K(w) . grad) v is evaluated through a precomputed table of
admissible triples (j, k -> l), one row per unordered pair j < k carrying
the product-to-sum coefficients of both orders.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .modes import Mode, check_mode, dot, is_plus, norm2, perp

TWO_PI_SQ = 2.0 * math.pi ** 2


@dataclass(frozen=True)
class Basis:
    """All canonical modes with |k| <= radius, in lexicographic order; one
    shared instance per radius (4 and 4.0 are kept apart)."""

    radius: float
    modes: tuple
    index: dict
    _laplacian: np.ndarray = field(compare=False, repr=False)

    @classmethod
    @functools.lru_cache(maxsize=None, typed=True)
    def build(cls, radius: float) -> "Basis":
        if radius <= 0:
            raise ValueError("radius must be positive")
        r2 = radius * radius
        rmax = int(math.floor(radius))
        modes = []
        for k1 in range(-rmax, rmax + 1):
            for k2 in range(-rmax, rmax + 1):
                if (k1, k2) == (0, 0) or k1 * k1 + k2 * k2 > r2:
                    continue
                modes.append((k1, k2))
        modes.sort()
        index = {k: i for i, k in enumerate(modes)}
        lam = np.array([norm2(k) for k in modes], dtype=float)
        lam.flags.writeable = False         # one array shared by all callers
        return cls(radius, tuple(modes), index, lam)

    def __len__(self) -> int:
        return len(self.modes)

    def __contains__(self, k) -> bool:
        return tuple(k) in self.index

    def laplacian_symbol(self) -> np.ndarray:
        """|k|^2 per mode, the symbol of -Delta on the truncation."""
        return self._laplacian


class SpectralField:
    """Real coefficient vector over the canonical modes of a basis."""

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis: Basis, coeffs=None):
        self.basis = basis
        if coeffs is None:
            coeffs = np.zeros(len(basis))
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (len(basis),):
            raise ValueError("coefficient length does not match basis size")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("non-finite coefficient")
        self.coeffs = coeffs

    @classmethod
    def single_mode(cls, basis: Basis, k: Mode, amplitude: float = 1.0):
        k = check_mode(k)
        f = cls(basis)
        f.coeffs[basis.index[k]] = amplitude
        return f

    def __sub__(self, other):
        _check_same_basis(self, other)
        return SpectralField(self.basis, self.coeffs - other.coeffs)


@dataclass
class VelocityField:
    """Divergence-free velocity, two coefficient vectors on the same basis."""

    basis: Basis
    u1: np.ndarray
    u2: np.ndarray


def _check_same_basis(a, b):
    if a.basis is not b.basis and a.basis.modes != b.basis.modes:
        raise ValueError("fields live on different bases")


def inner(f: SpectralField, g: SpectralField) -> float:
    """Continuum L2 pairing: 2*pi^2 times the coefficient dot product."""
    _check_same_basis(f, g)
    return TWO_PI_SQ * float(np.dot(f.coeffs, g.coeffs))


def sobolev_norm(f: SpectralField, s: float = 0.0) -> float:
    """H^s norm (sum of |k|^{2s} a_k^2 |e_k|^2)^{1/2}."""
    lam = f.basis.laplacian_symbol()
    return math.sqrt(TWO_PI_SQ * float(np.sum(lam ** s * f.coeffs ** 2)))


def interaction_coeff(j: Mode, k: Mode) -> float:
    """The triad scalar c(j,k) = (j^perp . k)(|j|^-2 - |k|^-2)/2."""
    j = check_mode(j)
    k = check_mode(k)
    return 0.5 * dot(perp(j), k) * (1.0 / norm2(j) - 1.0 / norm2(k))


def biot_savart(w: SpectralField) -> VelocityField:
    """Velocity from vorticity: mode k of w feeds (k^perp/|k|^2) on mode -k."""
    basis = w.basis
    u1 = np.zeros(len(basis))
    u2 = np.zeros(len(basis))
    for i, k in enumerate(basis.modes):
        a = w.coeffs[i]
        if a == 0.0:
            continue
        m = basis.index[(-k[0], -k[1])]
        n2 = norm2(k)
        u1[m] += -k[1] / n2 * a
        u2[m] += k[0] / n2 * a
    return VelocityField(basis=basis, u1=u1, u2=u2)


def _product_terms(j: Mode, k: Mode):
    """Expand B(e_j, e_k) = sum of coeff * e_l exactly.

    The velocity factor is e_{-j} scaled by (j^perp . k)/|j|^2 and the
    gradient factor is the derivative trig of e_k; the product of two trig
    functions splits into modes j+k and j-k with half weights.
    """
    f = dot(perp(j), k) / norm2(j)
    if f == 0.0:
        return []
    # velocity trig factor e_{-j}: sin class gives cos(j.x), cos class
    # -sin(j.x); the gradient trig factor of e_k likewise in k.x
    t1_cos, t2_cos = is_plus(j), is_plus(k)
    amp = 0.5 * f if t1_cos == t2_cos else -0.5 * f
    plus = (j[0] + k[0], j[1] + k[1])
    minus = (j[0] - k[0], j[1] - k[1])
    # product-to-sum on arguments (j.x) and (k.x)
    if t1_cos and t2_cos:        # cos cos = [cos(minus) + cos(plus)]/2
        raw = [("cos", minus, amp), ("cos", plus, amp)]
    elif t1_cos and not t2_cos:  # cos sin = [sin(plus) - sin(minus)]/2
        raw = [("sin", plus, amp), ("sin", minus, -amp)]
    elif not t1_cos and t2_cos:  # sin cos = [sin(plus) + sin(minus)]/2
        raw = [("sin", plus, amp), ("sin", minus, amp)]
    else:                        # sin sin = [cos(minus) - cos(plus)]/2
        raw = [("cos", minus, amp), ("cos", plus, -amp)]
    out = []
    for kind, m, a in raw:
        if m == (0, 0) or a == 0.0:
            continue  # constants and vanishing sines drop from the zero-mean space
        if kind == "sin":
            # sin(m.x) = e_m for m in the plus class, -e_{-m} otherwise
            out.append((m, a) if is_plus(m) else ((-m[0], -m[1]), -a))
        else:
            # cos(m.x) = e_{-m} for m in the plus class, e_m otherwise
            out.append(((-m[0], -m[1]), a) if is_plus(m) else (m, a))
    return out


def _table_rows(basis: Basis):
    """Rows (j, k, l, cjk) of _product_terms over the pairs a < b in
    np.triu_indices order with l in the basis, bit for bit, in slabs."""
    n, lam = len(basis), basis.laplacian_symbol()
    mx, my = np.array(basis.modes, dtype=np.intp).reshape(n, 2).T
    # mode (x, y) as code y * w + x, > 0 exactly on the plus class; each
    # j +- k has |x|, |y| < w / 2, so one grid slot (negatives from the end)
    w = 4 * int(math.floor(basis.radius)) + 1
    code = my * w + mx
    grid = np.full(w * w, -1, dtype=np.intp)      # basis index, -1 if none
    grid[code] = np.arange(n)
    pairs, slab = np.triu_indices(n, 1), 2 ** 12
    rows, cjk = [np.empty((0, 3), np.intp)], [np.empty(0)]  # if no pairs
    for s in range(0, len(pairs[0]), slab):
        a, b = (p[s:s + slab, None] for p in pairs)
        same = (code[a] > 0) == (code[b] > 0)
        # terms (cos minus, cos plus) when the trig classes agree, else (sin
        # plus, sin minus); sin(m.x) is e_m on the plus class, cos(m.x) e_-m
        t = code[a] + np.where(same, -1, 1) * np.array([1, -1]) * code[b]
        l = grid[np.where((t > 0) == same, -t, t)].ravel()
        cross = mx[a] * my[b] - my[a] * mx[b]                   # j^perp . k
        keep = np.flatnonzero((l.reshape(-1, 2) >= 0) & (cross != 0))
        # -0.5 f on unlike classes, -amp on the second term unless k is
        # plus, and sin(m.x) = -e_{-m} off the plus class
        neg = (~same & (t > 0)) ^ ((code[b] < 0) & np.array([False, True]))
        row = keep >> 1
        rows.append(np.column_stack((a[row, 0], b[row, 0], l[keep])))
        amp = 0.5 * (cross[row, 0] / lam[a[row, 0]])
        cjk.append(np.where(neg.ravel()[keep], -amp, amp))
    # Slab temporaries (64 KiB) stay under glibc's default mmap threshold,
    # so the (N, 3) rows are mapped, and freeing them lifts it above the
    # kernels' per-call temporaries, which would fault on every call.
    return (*np.concatenate(rows).T.copy(), np.concatenate(cjk))


class InteractionTable:
    """All admissible triples (j, k -> l) within a basis, one row per j < k.

    B(w, v) sums cjk * w[j] * v[k] + ckj * w[k] * v[j] into l; B(w, w) and
    L(w) sum only sym = cjk + ckj over the `live` rows, where it is nonzero.
    The table is the one source of the nonlinearity, its adjoint and L(w).
    """

    def __init__(self, basis: Basis):
        self.basis = basis
        self.j, self.k, self.l, self.cjk = _table_rows(basis)
        lam = basis.laplacian_symbol()
        # _product_terms(k, j): (j^perp.k)/|j|^2 becomes -(j^perp.k)/|k|^2
        self.ckj = -self.cjk * (lam[self.j] / lam[self.k])
        self.sym = self.cjk + self.ckj
        # L(w)[l, k] collects -sym * w[j] and L(w)[l, j] collects
        # -sym * w[k]; flat row-major targets for one bincount. It and B(w, w)
        # skip the rows with sym = 0 (|j| = |k|): bins start at +0 and never
        # hold -0, so +-0 changes no bit. A disk with triads has live rows.
        n, live = len(basis), np.flatnonzero(self.sym)
        j, k, l, sym = self.j[live], self.k[live], self.l[live], self.sym[live]
        self._lin_flat = np.concatenate((l * n + k, l * n + j))
        self._lin_src = np.concatenate((j, k))
        self._lin_coeff = -np.concatenate((sym, sym))
        self._lin_bufs = (self._lin_src, self._lin_coeff, self._lin_flat,
                          np.empty(len(self._lin_src)))  # grown by a stack
        self.live = (*np.split(self._lin_src, 2), l, sym)  # j, k are views
        if not len(self.cjk):  # no triads: bincount would give int zeros
            self.apply = self.adjoint_apply = lambda v, w: np.zeros(n)
            self.linearization = lambda w: np.zeros(w.shape + (n,))

    def __len__(self) -> int:
        return 2 * len(self.cjk)  # ordered triples (j, k -> l), two per row

    def apply(self, w: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Coefficients of B(w, v)."""
        n = len(self.basis)
        vals = (self.cjk * w[self.j] * v[self.k]
                + self.ckj * w[self.k] * v[self.j])
        return np.bincount(self.l, weights=vals, minlength=n)

    def adjoint_apply(self, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Coefficients of C(v, w), the first-slot adjoint of B(., w).

        Direct triadic contraction: each order summed into its first slot,
        so that <B(u,w), v> = <C(v,w), u> for every u on the basis.
        """
        n, vl = len(self.basis), v[self.l]
        return (np.bincount(self.j, self.cjk * w[self.k] * vl, n)
                + np.bincount(self.k, self.ckj * w[self.j] * vl, n))

    def linearization(self, w: np.ndarray) -> np.ndarray:
        """Dense matrix L(w) of v -> -B(w, v) - B(v, w), the tangent
        operator's non-diagonal part; w of shape (..., n) gives (..., n, n)
        from one bincount, each matrix bit-identical to its own call. It
        gathers into arrays kept on the table until the table is dropped
        (sources, coefficients, targets, values): 32 B per path and ordered
        triad of the largest stack seen. A `block_size` block (2**16 ordered
        triads, or one path) keeps at most 2 MiB; a larger stack passed
        directly keeps more."""
        n = len(self.basis)
        size = w.size // n * len(self._lin_src)
        if len(self._lin_bufs[-1]) < size:  # matrix p reads w[p], fills L[p]
            p = np.arange(w.size // n)[:, None]
            self._lin_bufs = ((p * n + self._lin_src).ravel(),
                              np.tile(self._lin_coeff, len(p)),
                              (p * n * n + self._lin_flat).ravel(),
                              np.empty(size))
        src, coeff, flat, vals = self._lin_bufs
        # mode "raise" would copy through a buffer; "wrap" writes into out
        vals = w.take(src[:size], out=vals[:size], mode="wrap")
        vals *= coeff[:size]
        L = np.bincount(flat[:size], vals, w.size * n)
        return L.reshape(w.shape + (n,))


_TABLE_CACHE: dict[tuple, InteractionTable] = {}


def build_interaction_table(basis: Basis) -> InteractionTable:
    key = basis.modes
    table = _TABLE_CACHE.get(key)
    if table is None:
        table = InteractionTable(basis)
        _TABLE_CACHE[key] = table
    return table


def nonlinearity_B(w: SpectralField, v: SpectralField) -> SpectralField:
    """Galerkin projection of (K(w) . grad) v."""
    _check_same_basis(w, v)
    table = build_interaction_table(w.basis)
    return SpectralField(w.basis, table.apply(w.coeffs, v.coeffs))


def adjoint_C(v: SpectralField, w: SpectralField) -> SpectralField:
    """The L2-adjoint of u -> B(u, w), applied to v."""
    _check_same_basis(v, w)
    table = build_interaction_table(v.basis)
    return SpectralField(v.basis, table.adjoint_apply(v.coeffs, w.coeffs))
