"""Bergman kernel on the fat Hartogs triangles, three ways.

The closed form on the domain with integer exponent k is

    B_k(z, w) = [ p_k(s) t^2 + q_k(s) t + s^k p_k(s) ]
                / [ k pi^2 (1 - t)^2 (t - s^k)^2 ],

in the invariant variables s = z1 * conj(w1), t = z2 * conj(w2), with

    p_k(s) = sum_{n=1}^{k-1} n (k-n) s^(n-1),
    q_k(s) = sum_{n=1}^{k}  (n^2 + (k-n)^2 s^k) s^(n-1).

The same kernel expands over the orthogonal monomial basis z^alpha,
alpha in the index set A_k = {alpha1 >= 0, alpha1 + k(alpha2+1) > -1},

    B_k(z, w) = sum_alpha s^alpha1 t^alpha2 (alpha1+1)(alpha1+1+k(alpha2+1)) / (k pi^2),

which serves as the independent oracle for the closed form.  The
dominating bound |t| / (|1-t|^2 |t-s^k|^2) is exposed separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import DomainSpec, Point2
from .quadrature import angle_rule

__all__ = [
    "MultiIndex",
    "SeriesSpec",
    "SeriesResult",
    "NearSingularError",
    "SeriesDivergenceError",
    "poly_p",
    "poly_q",
    "kernel_closed",
    "kernel_closed_st",
    "kernel_series",
    "kernel_series_st",
    "kernel_bound",
    "kernel_bound_st",
    "kernel_abs_polar",
    "basis_indices_by_weight",
]

DEFAULT_SINGULAR_FLOOR = 1e-12


class NearSingularError(ArithmeticError):
    """A kernel denominator factor fell below the reliability floor."""

    def __init__(self, factor: str, min_abs: float, floor: float):
        self.factor = factor
        self.min_abs = min_abs
        self.floor = floor
        super().__init__(
            f"near-singular kernel evaluation: |{factor}| = {min_abs:.3e} < floor {floor:.1e}"
        )


class SeriesDivergenceError(ArithmeticError):
    """The truncated kernel series did not meet its shell tolerance."""


@dataclass(frozen=True)
class MultiIndex:
    """Exponent pair (a1, a2); a2 = -1 is admissible in the basis set."""

    a1: int
    a2: int

    def in_basis(self, k: int) -> bool:
        """Membership in A_k: a1 >= 0 and a1 + k (a2 + 1) > -1."""
        return self.a1 >= 0 and self.a1 + k * (self.a2 + 1) > -1

    def weight(self, k: int) -> int:
        """Truncation weight a1 + k |a2 + 1| used for series shells."""
        return self.a1 + k * abs(self.a2 + 1)


@dataclass(frozen=True)
class SeriesSpec:
    """Truncation control for the basis expansion of the kernel."""

    max_degree: int = 200
    tolerance: float = 1e-9

    def __post_init__(self) -> None:
        if self.max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be > 0")


@dataclass(frozen=True)
class SeriesResult:
    value: complex
    last_shell: float
    degree_used: int


def p_coefficients(k: int) -> np.ndarray:
    """Integer coefficients of p_k in increasing powers of s (empty for k=1)."""
    return np.array([n * (k - n) for n in range(1, k)], dtype=np.int64)


def q_base_coefficients(k: int) -> np.ndarray:
    """Coefficients of sum n^2 s^(n-1), the s^k-free part of q_k."""
    return np.array([n * n for n in range(1, k + 1)], dtype=np.int64)


def q_shift_coefficients(k: int) -> np.ndarray:
    """Coefficients of sum (k-n)^2 s^(n-1), multiplying s^k inside q_k."""
    return np.array([(k - n) ** 2 for n in range(1, k + 1)], dtype=np.int64)


def _horner(coeffs: np.ndarray, s):
    if len(coeffs) == 0:
        return np.zeros_like(np.asarray(s, dtype=complex))
    acc = np.full_like(np.asarray(s, dtype=complex), complex(coeffs[-1]))
    for c in coeffs[-2::-1]:
        acc = acc * s + complex(c)
    return acc


def poly_p(k: int, s):
    """p_k(s); the empty sum at k = 1 is 0.  Works on scalars and arrays."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _horner(p_coefficients(k), s)


def poly_q(k: int, s):
    """q_k(s) = sum (n^2 + (k-n)^2 s^k) s^(n-1).  Works on scalars and arrays."""
    if k < 1:
        raise ValueError("k must be >= 1")
    s = np.asarray(s, dtype=complex)
    return _horner(q_base_coefficients(k), s) + s**k * _horner(q_shift_coefficients(k), s)


def _require_clear(factor: str, modulus) -> None:
    """Raise :class:`NearSingularError` when ``modulus`` of the named
    factor falls below the singular floor anywhere."""
    least = float(np.min(modulus, initial=np.inf))
    if least < DEFAULT_SINGULAR_FLOOR:
        raise NearSingularError(factor, least, DEFAULT_SINGULAR_FLOOR)


def _numerator(k: int, s, t, sk):
    """The kernel numerator (p_k(s) t + q_k(s)) t + s^k p_k(s), with sk = s^k.

    At k = 1 (p_1 = 0, q_1 = 1) it is ``t`` itself, which need not have
    the broadcast shape of ``s`` and ``t``.
    """
    if k == 1:
        return t
    p = poly_p(k, s)
    return (p * t + poly_q(k, s)) * t + sk * p


def _screen(one_minus_t, gap):
    """Screen the kernel's denominator factors ``one_minus_t`` = 1 - t and
    ``gap`` = t - s^k, in that order; returns their moduli."""
    moduli = np.abs(one_minus_t), np.abs(gap)
    _require_clear("1-t", moduli[0])
    _require_clear("t-s^k", moduli[1])
    return moduli


def kernel_closed_st(d: DomainSpec, s, t) -> np.ndarray:
    """Closed-form kernel as a function of the invariants (s, t).

    On the domain core's tensor grid the projection does not call this:
    it evaluates the kernel through its 1-d factor tables,
    :func:`_closed_rho_factor` and :func:`_closed_t_factor`.

    Raises :class:`NearSingularError` when |1-t| or |t-s^k| falls below
    the singular floor anywhere in the (broadcast) input.
    """
    k = d.k_int()
    s = np.asarray(s, dtype=complex)
    t = np.asarray(t, dtype=complex)
    sk = s**k
    one_minus_t, gap = 1.0 - t, t - sk
    _screen(one_minus_t, gap)
    return _numerator(k, s, t, sk) * (1.0 / ((k * math.pi**2) * one_minus_t**2)) / gap**2


def _closed_t_factor(d: DomainSpec, t0, n: int) -> np.ndarray:
    """The (v, theta2) factor G of the kernel on the domain core's tensor
    grid (see :func:`_closed_rho_factor`).

    ``t0`` is the (v,) array z2 v and theta2 runs over the n nodes of
    :func:`fathartogs.quadrature.angle_rule`.  Returns the (k, v, n) array
    of G_i = e^(i theta2) (i+1 + (k-1-i) t) / (k pi^2 t0 (1-t)^2),
    i = 0..k-1, with t = t0 e^(-i theta2).  It depends on neither u nor
    theta1.  Raises :class:`NearSingularError` when |1-t| falls below the
    singular floor.
    """
    k = d.k_int()
    t0 = np.asarray(t0, dtype=complex)
    e = np.exp(1j * angle_rule(n)[0])
    t = t0[:, None] * np.conj(e)
    one_minus_t = 1.0 - t
    _require_clear("1-t", np.abs(one_minus_t))
    base = e / ((k * math.pi**2) * t0[:, None] * one_minus_t**2)
    terms = np.arange(1, k + 1)[:, None, None]
    return (terms + (k - terms) * t) * base


def _closed_rho_factor(d: DomainSpec, s0: np.ndarray, t0: np.ndarray, n: int) -> np.ndarray:
    """The (u, m) factor T of the kernel on the domain core's tensor grid.

    On the grid, s = s0 e^(-i theta1) and t = t0 e^(-i theta2), with
    ``s0`` the (u, v) array of the zero-angle invariants z1 u v^(1/k),
    ``t0`` the (v,) array z2 v, and theta_j = 2 pi j / n on both angles.
    Then s^k / t = rho e^(i theta_m), where rho = s0^k / t0 = (z1 u)^k / z2
    is the same at every v of a u node and m = (j2 - k j1) mod n.  Since
    the numerator is the sum over i = 0..k-1 of
    s^i ((i+1) t + (k-1-i) s^k) (i+1 + (k-1-i) t), the kernel is a sum of
    k separable terms,

        B[u, v, j1, j2] = sum_i e^(-i i theta_j1) T_i[u, m] s0^i G_i[v, j2],

    G_i the factor of :func:`_closed_t_factor` and T_i the n-entry table in
    m returned here, as the (k, u, n) array

        T_i = (i+1 + (k-1-i) rho e^(i theta_m)) / (1 - rho e^(i theta_m))^2.

    The factor t - s^k is t0 e^(-i theta2) (1 - rho e^(i theta_m)), so the
    least of its moduli on the grid is the product of the minima of |t0|
    and of |1 - rho e^(i theta_m)|: raises :class:`NearSingularError` when
    that product falls below the singular floor.
    """
    k = d.k_int()
    rho_e = (s0[:, :1] ** k / t0[0]) * np.exp(1j * angle_rule(n)[0])
    gap = 1.0 - rho_e
    least = float(np.min(np.abs(t0))) * float(np.min(np.abs(gap)))
    if least < DEFAULT_SINGULAR_FLOOR:
        raise NearSingularError("t-s^k", least, DEFAULT_SINGULAR_FLOOR)
    terms = np.arange(1, k + 1)[:, None, None]
    return (terms + (k - terms) * rho_e) / gap**2


def _closed_modes(k: int, s0: np.ndarray, rho_factor: np.ndarray, t_factor: np.ndarray,
                  mu1: int, mu2: int) -> np.ndarray:
    """Angular mode (mu1, mu2) of the kernel on the domain core's tensor
    grid: the sum over both angle axes of
    B[u, v, j1, j2] e^(i(mu1 theta_j1 + mu2 theta_j2)), an array of shape
    (u, v), without forming B.

    ``s0`` is the (u, v) array of :func:`_closed_rho_factor`,
    ``rho_factor`` its (k, u, n) tables T_i and ``t_factor`` the (k, v, n)
    array G_i of :func:`_closed_t_factor`.  In the factored form
    B = sum_i e^(-i i theta1) T_i[u, m] s0^i G_i[v, j2], write T_i through
    its DFT, fft(T_i)[u, l].  The sum over j1 keeps only the indices l with
    k l = mu1 - i (mod n), and the sum over j2 is an inverse DFT of G_i, so
    the mode is

        n sum_i s0^i sum_l fft(T_i)[u, l] ifft(G_i)[v, (l + mu2) mod n].

    With g = gcd(k, n), a term keeps g indices l or none, and k/g terms
    keep some, so the mode is k outer products of a u and a v column in
    place of n^2 kernel entries per (u, v) node.  It is the same sum as
    over the full grid, aliasing included.
    """
    n = t_factor.shape[-1]
    t_hat = np.fft.fft(rho_factor)  # (k, u, l)
    g_hat = np.fft.ifft(t_factor)  # (k, v, l)
    l = np.arange(n)
    modes = np.zeros(s0.shape, dtype=complex)
    for i in range(k):
        kept = l[(k * l - (mu1 - i)) % n == 0]
        if kept.size:
            term = np.einsum("ul,vl->uv", t_hat[i][:, kept], g_hat[i][:, (kept + mu2) % n])
            modes += s0**i * term
    return n * modes


def kernel_closed(d: DomainSpec, z: Point2, w: Point2) -> complex:
    """Closed-form Bergman kernel value B_k(z, w)."""
    return complex(kernel_closed_st(d, z.z1 * np.conj(w.z1), z.z2 * np.conj(w.z2)))


def kernel_bound_st(d: DomainSpec, s, t) -> np.ndarray:
    """Dominating bound |t| / (|1-t|^2 |t-s^k|^2) on the invariants."""
    k = d.k_int()
    s = np.asarray(s, dtype=complex)
    t = np.asarray(t, dtype=complex)
    a1, a2 = _screen(1.0 - t, t - s**k)
    return np.abs(t) / (a1**2 * a2**2)


def kernel_bound(d: DomainSpec, z: Point2, w: Point2) -> float:
    return float(kernel_bound_st(d, z.z1 * np.conj(w.z1), z.z2 * np.conj(w.z2)))


def basis_indices_by_weight(k: int, max_weight: int) -> list[MultiIndex]:
    """All indices of A_k with weight a1 + k|a2+1| <= max_weight, by shells."""
    out: list[MultiIndex] = []
    for m in range(max_weight + 1):
        for n in range(-(m // k), m // k + 1):
            a1 = m - k * abs(n)
            idx = MultiIndex(a1, n - 1)
            if idx.weight(k) == m and idx.in_basis(k):
                out.append(idx)
    return out


# complex entries in one (points x degree) temporary of the series: about
# 23 points per block at degree 700
_SERIES_BLOCK_ELEMENTS = 1 << 14
# block-sized arrays in the workspace of one kernel_series_st call
_SERIES_WORK_ARRAYS = 7


def _front(buf: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """C-contiguous (rows, cols) view of the front of the flat array ``buf``.

    Contiguous like a fresh array, so that reductions over its rows add in
    the same order as they would on one.
    """
    return buf[: rows * cols].reshape(rows, cols)


def _running_powers(first: np.ndarray, base: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Rows first * base^i, i = 0..out.shape[1]-1, one row per point, in ``out``."""
    out[:, :1] = first[:, None]
    out[:, 1:] = base[:, None]
    return np.cumprod(out, axis=1, out=out)


def _series_block(k: int, M: int, s: np.ndarray, t: np.ndarray,
                  value: np.ndarray, shell: np.ndarray, work: np.ndarray) -> None:
    """Write the values and final-shell magnitudes, both without the factor
    1/(k pi^2), of the truncated series at the 1-d arrays ``s``, ``t`` into
    ``value`` and ``shell``.  Every block-sized temporary is a view of one
    row of the workspace ``work``."""
    b = s.size
    j1 = np.arange(1, M + 2, dtype=float)  # j + 1
    s_pow = _running_powers(np.ones(b), s, _front(work[0], b, M + 1))
    term1 = np.multiply(s_pow, j1, out=_front(work[1], b, M + 1))
    p1 = np.cumsum(term1, axis=1, out=_front(work[2], b, M + 1))  # running sums of (j+1) s^j
    np.multiply(term1, j1, out=term1)
    p2 = np.cumsum(term1, axis=1, out=_front(work[3], b, M + 1))  # and of (j+1)^2 s^j
    inv_t = 1.0 / t
    # row n >= 0 is t^(n-1) sum_j c_j s^j with a1 = j, up to m = M - kn;
    # row n < 0 starts at a1 = k|n| and carries t^(n-1) s^(k|n|) =
    # (s^k/t)^|n| / t, up to m = M - 2k|n|.  The regrouped base has modulus
    # < 1 on interior pairs, so deep rows underflow instead of overflowing.
    w = s**k * inv_t
    n_pos = np.arange(M // k + 1)
    n_neg = np.arange(1, M // (2 * k) + 1)
    rows = ((n_pos, M - k * n_pos, inv_t, t),
            (n_neg, M - 2 * k * n_neg, inv_t * w, w))
    value[:] = 0.0
    shell[:] = 0.0
    abs_work = work[6].view(float)  # twice the entries of one complex row
    for n_abs, m, first, base in rows:
        # the term-one row of the workspace is free once p1 and p2 are built
        factor = _running_powers(first, base, _front(work[1], b, n_abs.size))
        p1_m = np.take(p1, m, axis=1, out=_front(work[4], b, m.size), mode="clip")
        terms = np.take(p2, m, axis=1, out=_front(work[5], b, m.size), mode="clip")
        # with j = a1 - a_min, the coefficient (a1+1)(a1+1+kn) of either
        # sign is (j+1)^2 + k|n|(j+1): the row sums to P2[m] + k|n| P1[m]
        kn = (k * n_abs).astype(float)
        np.add(terms, np.multiply(kn, p1_m, out=p1_m), out=terms)
        np.multiply(factor, terms, out=terms)
        if terms.size:
            # in order of |n|, so the partial sums converge to the row total:
            # where the kernel itself cancels to ~0, a sequential sum keeps
            # its error at the scale of the value, not of the largest row
            value += np.cumsum(terms, axis=1, out=terms)[:, -1]
        last = (m + 1.0) * (m + 1.0 + kn)  # coefficient of the row's last term
        s_pow_m = np.abs(np.take(s_pow, m, axis=1, out=p1_m, mode="clip"),
                         out=_front(abs_work, b, m.size))
        abs_factor = np.abs(factor, out=_front(abs_work[abs_work.size // 2:], b, m.size))
        np.multiply(last, s_pow_m, out=s_pow_m)
        shell += np.sum(np.multiply(s_pow_m, abs_factor, out=s_pow_m), axis=1)


def kernel_series_st(
    d: DomainSpec, s, t, spec: SeriesSpec
) -> tuple[np.ndarray, np.ndarray, int]:
    """Truncated basis expansion of the kernel on arrays of invariants.

    The truncation keeps every index of weight a1 + k|a2+1| <= max_degree.
    The indices fall into rows n = a2 + 1; along a row, with j counted
    from the row's first admissible a1, each coefficient is
    (j+1)^2 + k|n|(j+1).  Every row polynomial is therefore a prefix of
    the two running sums of (j+1) s^j and (j+1)^2 s^j, which are shared by
    all rows: one block of points costs a fixed number of array
    operations of length max_degree, and the coefficients still come from
    the basis formula alone, independent of the closed form.
    The block temporaries are views of one workspace, allocated once per
    call and reused by every block.  Fresh temporaries per block let
    glibc trim the freed top of the heap after each block and fault the
    pages in again for the next one: 12000-16000 minor faults per call of
    1024 pairs at degrees 400-700, against a few hundred at most with the
    workspace.
    Returns (values, final-shell magnitudes, degree used); the final-shell
    magnitude sums |term| over the outermost weight shell (the last term
    of every row) and is the convergence heuristic for the truncation.

    Raises :class:`NearSingularError` when |t| falls below the default
    singular floor anywhere in the (broadcast) input.
    """
    k = d.k_int()
    s_b, t_b = np.broadcast_arrays(np.asarray(s, dtype=complex),
                                   np.asarray(t, dtype=complex))
    _require_clear("t", np.abs(t_b))
    M = spec.max_degree
    s_flat, t_flat = s_b.ravel(), t_b.ravel()
    total = np.empty(s_flat.size, dtype=complex)
    last_shell = np.empty(s_flat.size, dtype=float)
    block = max(1, _SERIES_BLOCK_ELEMENTS // (M + 1))
    work = np.empty((_SERIES_WORK_ARRAYS, min(block, s_flat.size) * (M + 1)), dtype=complex)
    for lo in range(0, s_flat.size, block):
        part = slice(lo, lo + block)
        _series_block(k, M, s_flat[part], t_flat[part], total[part], last_shell[part], work)
    norm = 1.0 / (k * math.pi**2)
    total *= norm
    last_shell *= norm
    return total.reshape(s_b.shape), last_shell.reshape(s_b.shape), M


def kernel_series(d: DomainSpec, z: Point2, w: Point2, spec: SeriesSpec) -> SeriesResult:
    """Kernel value by truncated orthonormal-basis expansion.

    Raises :class:`SeriesDivergenceError` when the final shell magnitude
    still exceeds the spec tolerance, which signals either insufficient
    truncation or (s, t) too close to the singular set.
    """
    values, shells, degree = kernel_series_st(d, z.z1 * np.conj(w.z1), z.z2 * np.conj(w.z2),
                                              spec)
    last_shell = float(shells)
    if last_shell > spec.tolerance:
        raise SeriesDivergenceError(
            f"series shell magnitude {last_shell:.3e} exceeds tolerance "
            f"{spec.tolerance:.1e} at degree {degree}"
        )
    return SeriesResult(complex(values), last_shell, degree)


def _polar_w1_factor(d: DomainSpec, z1_abs: float, z2_abs: float, psi, u) -> np.ndarray:
    """The |w1|-side factor G' of :func:`kernel_abs_polar` on the grid of the
    1-d axes ``psi`` and ``u``.

    Where only the n = 1 term is nonzero (k = 1, or z1 = 0) it is |G'_1|,
    of shape (psi, u); otherwise the real (psi, u, k^2) array
    [|G'_n|^2 | Re G'_n conj(G'_m) | Im G'_n conj(G'_m)] over n < m, the
    left operand of the real matrix product that gives |B_k|^2.
    """
    k = d.k_int()
    b = z1_abs * np.asarray(u, dtype=float)  # a = b v^(1/k)
    bk = b**k
    e = z2_abs * np.exp(-1j * np.asarray(psi, dtype=float))[:, None]  # tau = v e
    inv = 1.0 / np.abs(e - bk) ** 2
    if k == 1 or z1_abs == 0.0:
        return z2_abs * inv
    n = np.arange(1, k + 1)
    g = b[:, None] ** (n - 1) * (n * e[..., None] + (k - n) * bk[:, None]) * inv[..., None]
    i, j = np.triu_indices(k, 1)
    gg = g[..., i] * np.conj(g[..., j])
    return np.concatenate((g.real**2 + g.imag**2, gg.real, gg.imag), axis=-1)


def _polar_phases(k: int, psi, theta1):
    """The constants of :func:`_polar_theta1_factor` on the 1-d axes ``psi``
    and ``theta1``: e^(-i psi), e^(-ik theta1), the (k, theta1) rows
    e^(-i(n-1) theta1), n = 1..k, and the index pairs n < m.  They depend
    on neither v nor u, so a caller that forms the factor in chunks of v
    forms them once."""
    psi, theta1 = (np.asarray(x, dtype=float) for x in (psi, theta1))
    n = np.arange(1, k + 1)[:, None]
    return (np.exp(-1j * psi), np.exp(-1j * k * theta1), np.exp(-1j * (n - 1) * theta1),
            np.triu_indices(k, 1))


def _polar_theta1_factor(d: DomainSpec, z1_abs: float, z2_abs: float, v, phases) -> np.ndarray:
    """The theta1-side factor H of :func:`kernel_abs_polar` on the grid of
    the 1-d axis ``v`` and the (psi, theta1) axes of
    ``phases = _polar_phases(k, psi, theta1)``.

    Where only the n = 1 term is nonzero (k = 1, or z1 = 0) it is
    |H_1| / v, of shape (v, psi, theta1); otherwise the real
    (v, psi, k^2, theta1) array [|H_n|^2 | 2 Re H_n conj(H_m) |
    -2 Im H_n conj(H_m)] over n < m, with H_n scaled by v^((n-1)/k - 1),
    the right operand of the real matrix product that gives |B_k|^2.
    ``z1_abs`` only selects the form.  Each entry depends on its own v
    node alone, so the factor of a run of v nodes is, bit for bit, the
    factors of its nodes stacked.  H is formed in place and the operand
    filled pair by pair, so the temporaries of a run stay near the size
    of H and the operand.
    """
    k = d.k_int()
    e_psi, e_k, e_n, (i, j) = phases
    v = np.asarray(v, dtype=float)
    t = ((z2_abs * v[:, None]) * e_psi)[..., None] * e_k  # (v, psi, theta1)
    inv_outer = 1.0 / ((k * math.pi**2) * np.abs(1.0 - t) ** 2)
    if k == 1 or z1_abs == 0.0:
        return np.abs(1.0 + (k - 1) * t) * inv_outer / v[:, None, None]
    n = np.arange(1, k + 1)[:, None]
    # H with the power of v, as rows n of the (v, psi) slices
    h = np.multiply(k - n, t[:, :, None, :])
    del t
    np.add(n, h, out=h)
    np.multiply(e_n, h, out=h)
    h *= inv_outer[:, :, None, :] * v[:, None, None, None] ** ((n - 1) / k - 1.0)
    del inv_outer
    right = np.empty(h.shape[:2] + (k * k,) + h.shape[3:])
    norm = right[:, :, :k]
    np.square(h.real, out=norm)
    norm += np.square(h.imag)
    for col, (a, b) in enumerate(zip(i, j), start=k):
        hh = np.conj(h[:, :, b])
        np.multiply(h[:, :, a], hh, out=hh)
        np.multiply(2.0, hh.real, out=right[:, :, col])
        np.multiply(-2.0, hh.imag, out=right[:, :, col + i.size])
    return right


def kernel_abs_polar(w1_factor: np.ndarray, theta1_factor: np.ndarray, out=None) -> np.ndarray:
    """|B_k(z, w)| on the grid of the 1-d axes (v, psi, u, theta1).

    The kernel modulus depends on w only through |w1|, |w2| and the two
    angle combinations theta1 = arg(z1) - arg(w1) and
    psi = (arg(z2) - arg(w2)) - k * theta1, the phase of t relative to
    s^k.  The axes are the Schur box coordinates: |w2| = v and
    |w1| = u v^(1/k).  With a = z1_abs |w1| and tau = z2_abs v e^(-i psi),
    so that s = a e^(-i theta1) and t = tau e^(-ik theta1), the numerator
    is a sum of k separable terms,

        N(s, t) = sum_{n=1}^{k} s^(n-1) (n t + (k-n) s^k) (n + (k-n) t),

    and |B_k| = |sum_n G_n H_n| with

        G_n = a^(n-1) (n tau + (k-n) a^k) / |tau - a^k|^2,
        H_n = e^(-i(n-1) theta1) (n + (k-n) t) / (k pi^2 |1-t|^2).

    Since tau - a^k = v (z2_abs e^(-i psi) - (z1_abs u)^k), G_n is
    v^((n-1)/k - 1) G'_n with G'_n a function of (psi, u) alone.  The
    power of v goes into H_n, which is free of u; on one (v, psi) slice
    the sum over n is then the product of G' (u x k) and H (k x theta1).
    The block is taken from the square of the modulus,

        |sum_n G'_n H_n|^2 = sum_n |G'_n|^2 |H_n|^2
                             + 2 sum_{n<m} Re(G'_n conj(G'_m) H_n conj(H_m)),

    as one real ``np.matmul`` of [|G'_n|^2 | Re G'_n conj(G'_m) |
    Im G'_n conj(G'_m)] (u x k^2) and the (k^2 x theta1) matrix with rows
    [|H_n|^2 | 2 Re H_n conj(H_m) | -2 Im H_n conj(H_m)], over n < m; its
    square root, with rounding below zero clamped to 0, is |B_k|.  At k = 1,
    and on the axis z1 = 0 where a = 0, only the n = 1 term is nonzero, and
    |B_k| is the product |G'_1| |H_1| / v.

    Accuracy.  With scale = sum_n |G'_n H_n|, the sum of the term moduli,
    the square is accurate to about k^2 eps scale^2, so an entry is
    accurate to about k^2 eps scale^2 / |B_k|, not to eps scale as the
    modulus of the complex sum would be; at a zero of the kernel the error
    is about k sqrt(eps) scale.  On the Schur inner grids (10 ladder levels,
    corner exponent 0.75) min |B_k| / scale is 1.3e-4 at k = 2, 5.4e-5 at
    k = 3 and 1.3e-4 at k = 4, and the entries agree with the modulus of
    the complex sum to 5.4e-9 relative at worst, far below the 3.4e-6
    error of the 32-node theta1 rule; the Schur values move by at most
    3.3e-16 relative.

    The factors are formed apart: ``w1_factor`` is
    ``_polar_w1_factor(d, z1_abs, z2_abs, psi, u)``, the only place the u
    axis enters, and ``theta1_factor`` is
    ``_polar_theta1_factor(d, z1_abs, z2_abs, v, _polar_phases(k, psi, theta1))``,
    the only place v enters.  A caller that evaluates many v blocks on one
    (psi, u) grid forms the first once and the second for a chunk of v
    nodes at a time; this function is only the per-block product, clamp
    and square root.  The result, of shape (v, psi, u, theta1), is written
    into ``out`` when given, so a caller that sums each block before the
    next can reuse one buffer for every block.
    """
    if w1_factor.ndim == 2:  # the n = 1 term alone
        return np.multiply(w1_factor[:, :, None], theta1_factor[:, :, None, :], out=out)
    q = np.matmul(w1_factor, theta1_factor, out=out)
    if q.min() < 0.0:
        np.maximum(q, 0.0, out=q)
    return np.sqrt(q, out=q)
