"""Exact integer/rational linear algebra for lattice constructions.

Everything here runs on arbitrary-precision Python ints (Fractions for
kernel solves); no floats enter any certificate.  Floating point is used
only to classify the small top-left block by eigenvalue magnitude.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .errors import LatticeError

IntMat = list[list[int]]
IntVec = list[int]


def as_int_matrix(M) -> IntMat:
    """Validate and copy a square matrix of exact integers."""
    rows = [list(r) for r in M]
    d = len(rows)
    if d == 0 or any(len(r) != d for r in rows):
        raise LatticeError("matrix must be square and non-empty")
    for r in rows:
        for x in r:
            if not isinstance(x, (int, np.integer)):
                raise LatticeError(f"non-integer entry {x!r}")
    return [[int(x) for x in r] for r in rows]


def identity(d: int) -> IntMat:
    return [[1 if i == j else 0 for j in range(d)] for i in range(d)]


def mat_mul(A: IntMat, B: IntMat) -> IntMat:
    n, m, p = len(A), len(B), len(B[0])
    assert len(A[0]) == m
    return [[sum(A[i][t] * B[t][j] for t in range(m)) for j in range(p)] for i in range(n)]


def mat_vec(A: IntMat, v: IntVec) -> IntVec:
    return [sum(A[i][j] * v[j] for j in range(len(v))) for i in range(len(A))]


def transpose(A) -> list[list]:
    return [list(col) for col in zip(*A)]


def det_int(M: IntMat) -> int:
    """Exact determinant via the Bareiss fraction-free elimination."""
    a = [row[:] for row in M]
    n = len(a)
    sign = 1
    prev = 1
    for i in range(n - 1):
        if a[i][i] == 0:
            for r in range(i + 1, n):
                if a[r][i] != 0:
                    a[i], a[r] = a[r], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
            a[r][i] = 0
        prev = a[i][i]
    return sign * a[n - 1][n - 1]


def mat_inv_unimodular(S: IntMat) -> IntMat:
    """Exact inverse of a determinant-±1 integer matrix (integer entries)."""
    d = len(S)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(d)]
         for i, row in enumerate(S)]
    for col in range(d):
        piv = next((r for r in range(col, d) if a[r][col] != 0), None)
        if piv is None:
            raise LatticeError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(d):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    out = []
    for r in range(d):
        row = []
        for c in range(d, 2 * d):
            x = a[r][c]
            if x.denominator != 1:
                raise LatticeError("matrix is not unimodular")
            row.append(int(x))
        out.append(row)
    return out


def hermite_normal_form(M) -> tuple[list[list[int]], IntMat]:
    """Row Hermite normal form.

    Returns (H, U) with U*M = H, U unimodular, H in row echelon form with
    positive pivots and entries above each pivot reduced into [0, pivot).
    Accepts rectangular input.
    """
    H = [[int(x) for x in row] for row in M]
    r = len(H)
    c = len(H[0]) if r else 0
    U = identity(r)
    row = 0
    for col in range(c):
        if row == r:
            break
        while True:
            cand = [i for i in range(row, r) if H[i][col] != 0]
            if not cand:
                break
            p = min(cand, key=lambda i: abs(H[i][col]))
            if p != row:
                H[row], H[p] = H[p], H[row]
                U[row], U[p] = U[p], U[row]
            done = True
            for i in range(row + 1, r):
                if H[i][col] != 0:
                    q = H[i][col] // H[row][col]
                    H[i] = [x - q * y for x, y in zip(H[i], H[row])]
                    U[i] = [x - q * y for x, y in zip(U[i], U[row])]
                    if H[i][col] != 0:
                        done = False
            if done:
                break
        if H[row][col] == 0:
            continue
        if H[row][col] < 0:
            H[row] = [-x for x in H[row]]
            U[row] = [-x for x in U[row]]
        for i in range(row):
            q = H[i][col] // H[row][col]
            if q != 0:
                H[i] = [x - q * y for x, y in zip(H[i], H[row])]
                U[i] = [x - q * y for x, y in zip(U[i], U[row])]
        row += 1
    return H, U


def primitive(v) -> IntVec:
    """Divide out the gcd of the entries, preserving orientation."""
    w = [int(x) for x in v]
    g = 0
    for x in w:
        g = gcd(g, abs(x))
    if g == 0:
        raise LatticeError("zero vector has no primitive form")
    return [x // g for x in w]


def char_poly(M: IntMat) -> list[int]:
    """Coefficients [1, c1, ..., cd] of det(xI - M), exact integers
    (Faddeev-LeVerrier recursion over rationals)."""
    M = as_int_matrix(M)
    d = len(M)
    Mf = [[Fraction(x) for x in row] for row in M]
    Nk = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    coeffs = [1]
    for k in range(1, d + 1):
        MN = [[sum(Mf[i][t] * Nk[t][j] for t in range(d)) for j in range(d)]
              for i in range(d)]
        ck = -sum(MN[i][i] for i in range(d)) / k
        assert ck.denominator == 1
        coeffs.append(int(ck))
        for i in range(d):
            MN[i][i] += ck
        Nk = MN
    return coeffs


def integer_eigenvalues(M) -> list[int]:
    """Exact integer roots of the characteristic polynomial.

    Candidates come from the rational-root theorem (divisors of the
    trailing nonzero coefficient, plus 0 when the constant term vanishes);
    each is confirmed by an exact determinant evaluation.
    """
    M = as_int_matrix(M)
    d = len(M)
    coeffs = char_poly(M)
    trailing = coeffs[-1]
    candidates = set()
    if trailing == 0:
        candidates.add(0)
        tail = next((c for c in reversed(coeffs) if c != 0), None)
    else:
        tail = trailing
    if tail is not None:
        a = abs(tail)
        for q in range(1, int(a ** 0.5) + 1):
            if a % q == 0:
                for m in (q, a // q):
                    candidates.update((m, -m))
    out = []
    for m in sorted(candidates):
        shifted = [[M[i][j] - (m if i == j else 0) for j in range(d)] for i in range(d)]
        if det_int(shifted) == 0:
            out.append(m)
    return out


def _kernel_basis(B: IntMat) -> list[IntVec]:
    """Basis of the saturated integer right kernel {x : B x = 0}.

    Row-HNF the transpose: U * B^T = H; rows of U facing zero rows of H
    give the kernel lattice.  Order follows the HNF ('Hermite-first').
    """
    H, U = hermite_normal_form(transpose(B))
    out = []
    for i, row in enumerate(H):
        if all(x == 0 for x in row):
            out.append(U[i])
    return out


def left_eigenvector_integer(M, m: int) -> IntVec:
    """Primitive integer v with v^T M = m v^T, exact: the invariant line of
    M^T for the same eigenvalue."""
    return derive_invariant_line(transpose(as_int_matrix(M)), m)


def derive_invariant_line(M, m: int) -> IntVec:
    """Primitive integer right eigenvector for the integer eigenvalue m."""
    M = as_int_matrix(M)
    d = len(M)
    shifted = [[M[i][j] - (m if i == j else 0) for j in range(d)] for i in range(d)]
    if det_int(shifted) != 0:
        raise LatticeError(f"{m} is not an eigenvalue (det(M - mI) != 0)")
    u = primitive(_kernel_basis(shifted)[0])
    if next(x for x in u if x != 0) < 0:
        u = [-x for x in u]
    return u


def orthogonal_sublattice_basis(v) -> list[IntVec]:
    """Basis of the full sublattice {w in Z^d : v.w = 0} for primitive v."""
    v = [int(x) for x in v]
    if all(x == 0 for x in v):
        raise LatticeError("zero vector")
    d = len(v)
    if d < 2:
        raise LatticeError("need dimension >= 2")
    return _kernel_basis([v])


def _dual_vector(v: IntVec) -> IntVec:
    """Some integer w with v.w = 1 (v primitive); from the HNF transform."""
    H, U = hermite_normal_form([[x] for x in v])
    g = H[0][0]
    if g != 1:
        raise LatticeError("vector is not primitive")
    return U[0]


@dataclass(frozen=True)
class TilingParallelotope:
    """Unit-volume integer parallelotope adapted to a left eigenvector.

    Columns w_1..w_{d-1} of W span the sublattice orthogonal to v; the last
    column satisfies v.w_d = 1; det(W) = ±1, all exact.
    """
    v: tuple[int, ...]
    W: tuple[tuple[int, ...], ...]  # row-major, columns are w_1..w_d

    def columns(self) -> list[IntVec]:
        return [list(col) for col in zip(*self.W)]


def tiling_parallelotope(v) -> TilingParallelotope:
    v = primitive(v)
    d = len(v)
    if d == 1:
        w = v[0]  # v is (1,) or (-1,); v.w = 1 forces w = v
        tp = TilingParallelotope(v=tuple(v), W=((w,),))
        _check_tiling(tp)
        return tp
    basis = orthogonal_sublattice_basis(v)
    wd = _dual_vector(v)
    wd = _reduce_sup_norm(wd, basis)
    cols = basis + [wd]
    W = transpose(cols)
    tp = TilingParallelotope(v=tuple(v), W=tuple(tuple(r) for r in W))
    _check_tiling(tp)
    return tp


def _reduce_sup_norm(w: IntVec, basis: list[IntVec]) -> IntVec:
    """Deterministic sup-norm reduction of w modulo the span of basis:
    coordinate descent, then an exhaustive {-1,0,1} offset sweep with
    lexicographic tie-breaking."""
    def key(u):
        return (max(abs(x) for x in u), tuple(u))

    cur = w[:]
    changed = True
    while changed:
        changed = False
        for b in basis:
            best = cur
            for t in range(-8, 9):
                cand = [x - t * y for x, y in zip(cur, b)]
                if key(cand) < key(best):
                    best = cand
            if best != cur:
                cur = best
                changed = True
    best = cur
    for offs in itertools.product((-1, 0, 1), repeat=len(basis)):
        cand = cur[:]
        for t, b in zip(offs, basis):
            cand = [x - t * y for x, y in zip(cand, b)]
        if key(cand) < key(best):
            best = cand
    return best


def _check_tiling(tp: TilingParallelotope) -> None:
    cols = tp.columns()
    v = list(tp.v)
    d = len(v)
    for i in range(d - 1):
        if sum(a * b for a, b in zip(v, cols[i])) != 0:
            raise LatticeError("tiling column not orthogonal to v")
    if sum(a * b for a, b in zip(v, cols[-1])) != 1:
        raise LatticeError("tiling last column has v.w_d != 1")
    if det_int([list(r) for r in tp.W]) not in (1, -1):
        raise LatticeError("tiling parallelotope is not unimodular")


def _solve_rational(A: IntMat, b: IntVec) -> list[Fraction] | None:
    """Exact solve of the system A x = b (any shape and rank): one particular
    solution, with free variables set to 0, or None if inconsistent."""
    n, k = len(A), len(A[0])
    aug = [[Fraction(A[i][j]) for j in range(k)] + [Fraction(b[i])] for i in range(n)]
    row = 0
    piv_cols = []
    for col in range(k):
        piv = next((r for r in range(row, n) if aug[r][col] != 0), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [x * inv for x in aug[row]]
        for r in range(n):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        piv_cols.append(col)
        row += 1
    for r in range(row, n):
        if aug[r][k] != 0:
            return None
    x = [Fraction(0)] * k
    for r, col in enumerate(piv_cols):
        x[col] = aug[r][k]
    return x


@dataclass(frozen=True)
class BlockForm:
    """Result of conjugating M into block form by a unimodular S.

    M_conj = S^-1 M S has an exact zero bottom-left (d-k) x k block; A is
    its top-left k x k block.  When `decoupled` is set the top-right block
    is exactly zero as well, which is what the series construction of the
    semi-conjugacy requires for k < d.
    """
    S: tuple[tuple[int, ...], ...]
    k: int
    A: tuple[tuple[int, ...], ...]
    M_conj: tuple[tuple[int, ...], ...]
    classification: str  # expanding | hyperbolic | neither
    decoupled: bool

    def S_list(self) -> IntMat:
        return [list(r) for r in self.S]

    def A_array(self) -> np.ndarray:
        return np.array(self.A, dtype=float)


def classify_block(A: IntMat, tol: float = 1e-9) -> str:
    mags = np.abs(np.linalg.eigvals(np.array(A, dtype=float)))
    if np.all(mags > 1 + tol):
        return "expanding"
    if np.all(np.abs(mags - 1) > tol):
        return "hyperbolic"
    return "neither"


def block_triangularize(M, B: list) -> BlockForm:
    """Complete an M-invariant sublattice basis B (k integer vectors) to a
    unimodular S with S^-1 M S block upper-triangular.

    After completion, an exact integer Sylvester solve A X - X D = -C is
    attempted to null the top-right coupling block C; when it succeeds the
    form is block diagonal and usable by the series semi-conjugacy.
    """
    M = as_int_matrix(M)
    d = len(M)
    vecs = [[int(x) for x in b] for b in B]
    k = len(vecs)
    if not 1 <= k <= d or any(len(b) != d for b in vecs):
        raise LatticeError("need 1..d basis vectors of length d")

    C = transpose(vecs)  # d x k, columns are the basis
    H, U = hermite_normal_form(C)
    piv_rows = [r for r in range(len(H)) if any(x != 0 for x in H[r])]
    if len(piv_rows) < k:
        raise LatticeError("basis vectors are linearly dependent")
    for r in range(k):
        pcol = next(c for c in range(k) if H[r][c] != 0)
        if H[r][pcol] != 1:
            raise LatticeError(
                f"sublattice is not a direct summand of Z^d (HNF pivot {H[r][pcol]})")

    for b in vecs:
        x = _solve_rational(C, mat_vec(M, b))
        if x is None:
            raise LatticeError(f"sublattice is not M-invariant at basis vector {b}")
        if any(xi.denominator != 1 for xi in x):
            raise LatticeError(f"M*{b} is not in the integer span of the basis")

    Uinv = mat_inv_unimodular(U)
    S = [[vecs[j][i] if j < k else Uinv[i][j] for j in range(d)] for i in range(d)]
    if det_int(S) not in (1, -1):
        raise LatticeError("completion failed to produce a unimodular matrix")

    Mc = mat_mul(mat_inv_unimodular(S), mat_mul(M, S))
    for i in range(k, d):
        for j in range(k):
            if Mc[i][j] != 0:
                raise LatticeError("block-triangular structure check failed")

    A = [row[:k] for row in Mc[:k]]
    decoupled = k == d
    if k < d:
        S2, Mc2 = _try_decouple(S, Mc, k)
        if S2 is not None:
            S, Mc = S2, Mc2
            decoupled = True
    return BlockForm(
        S=tuple(tuple(r) for r in S),
        k=k,
        A=tuple(tuple(r) for r in A),
        M_conj=tuple(tuple(r) for r in Mc),
        classification=classify_block(A),
        decoupled=decoupled,
    )


def _try_decouple(S: IntMat, Mc: IntMat, k: int):
    """Solve A X - X D = -C over the integers (C the top-right block of Mc).
    On success returns the refined (S', S'^-1 M S') with zero top-right
    block; otherwise (None, None)."""
    d = len(Mc)
    r = d - k
    A = [row[:k] for row in Mc[:k]]
    D = [row[k:] for row in Mc[k:]]
    C = [row[k:] for row in Mc[:k]]
    if all(all(x == 0 for x in row) for row in C):
        return S, Mc
    # unknowns X (k x r), equations sum_t A[i][t] X[t][j] - sum_t X[i][t] D[t][j] = -C[i][j]
    nunk = k * r
    rows = []
    rhs = []
    for i in range(k):
        for j in range(r):
            row = [0] * nunk
            for t in range(k):
                row[t * r + j] += A[i][t]
            for t in range(r):
                row[i * r + t] -= D[t][j]
            rows.append(row)
            rhs.append(-C[i][j])
    x = _solve_rational(rows, rhs)
    if x is None or any(xi.denominator != 1 for xi in x):
        return None, None
    X = [[int(x[i * r + j]) for j in range(r)] for i in range(k)]
    T = identity(d)
    for i in range(k):
        for j in range(r):
            T[i][k + j] = X[i][j]
    S2 = mat_mul(S, T)
    Mc2 = mat_mul(mat_inv_unimodular(T), mat_mul(Mc, T))
    return S2, Mc2

