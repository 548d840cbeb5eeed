"""Exact integer linear algebra for lattice constructions.

Everything here runs on arbitrary-precision Python ints; no floats enter
any certificate.  One elimination, the Hermite normal form, is behind
every inverse, kernel, membership test and linear solve; determinants
come from Bareiss elimination.  Floating point is used only to classify
the small top-left block by eigenvalue magnitude.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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
    """Exact inverse of a determinant-±1 integer matrix: the transform U of
    the Hermite normal form U S = H, which is the inverse when H = I."""
    H, U = hermite_normal_form(S)
    if H != identity(len(S)):
        raise LatticeError("matrix is not unimodular" if any(H[-1])
                           else "matrix is singular")
    return U


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
    (Faddeev-LeVerrier recursion; every N_k is an integer matrix and each
    division by k is exact)."""
    M = as_int_matrix(M)
    d = len(M)
    Nk = identity(d)
    coeffs = [1]
    for k in range(1, d + 1):
        MN = mat_mul(M, Nk)
        ck = -sum(MN[i][i] for i in range(d)) // k
        coeffs.append(ck)
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
    basis = _kernel_basis([v])  # the sublattice orthogonal to v
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


def _solve_integer(A: IntMat, b: IntVec) -> IntVec | None:
    """Some integer x with A x = b (any shape and rank), or None if there is
    none.

    Row-HNF the transpose, U A^T = H, and put x = U^T y: the system becomes
    H^T y = b, which is lower triangular on the pivot rows of H.  Forward
    substitution fixes y there (0 on the zero rows), and an integer y, hence
    an integer x, exists exactly when every quotient is exact and the
    remaining equations hold.
    """
    H, U = hermite_normal_form(transpose(A))
    y = [0] * len(H)
    for i, row in enumerate(H):
        p = next((j for j, h in enumerate(row) if h != 0), None)
        if p is None:
            break
        q, rem = divmod(b[p] - sum(H[t][p] * y[t] for t in range(i)), row[p])
        if rem:
            return None
        y[i] = q
    if mat_vec(transpose(H), y) != list(b):
        return None
    return mat_vec(transpose(U), y)


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

    The row HNF of the d x k basis matrix C is U C = [I_k; 0] exactly when
    the basis spans a direct summand of Z^d; then S = U^-1 has the basis as
    its first k columns, S^-1 = U, and the sublattice is M-invariant iff
    the bottom-left block of U M S is zero.

    An integer Sylvester solve A X - X D = -C (C now the top-right block)
    then nulls the coupling: the form is decoupled, i.e. block diagonal and
    usable by the series semi-conjugacy, unless no integer X exists.  When
    A and D share an eigenvalue X is not unique, and S is the one given by
    the X that _solve_integer returns.
    """
    M = as_int_matrix(M)
    d = len(M)
    vecs = [[int(x) for x in b] for b in B]
    k = len(vecs)
    if not 1 <= k <= d or any(len(b) != d for b in vecs):
        raise LatticeError("need 1..d basis vectors of length d")

    H, U = hermite_normal_form(transpose(vecs))
    if not any(H[k - 1]):
        raise LatticeError("basis vectors are linearly dependent")
    # rank k in k columns: the pivots sit on the diagonal of H
    pivot = next((H[r][r] for r in range(k) if H[r][r] != 1), None)
    if pivot is not None:
        raise LatticeError(
            f"sublattice is not a direct summand of Z^d (HNF pivot {pivot})")

    S = mat_inv_unimodular(U)
    Mc = mat_mul(U, mat_mul(M, S))
    # M S = S Mc: M b_j is in the span of the basis iff column j of Mc
    # vanishes below row k (and is then in the integer span, Mc being integer)
    for j, b in enumerate(vecs):
        if any(Mc[i][j] for i in range(k, d)):
            raise LatticeError(f"sublattice is not M-invariant at basis vector {b}")

    A = [row[:k] for row in Mc[:k]]
    decoupled = k == d
    if k < d:
        refined = _try_decouple(S, Mc, k)
        if refined is not None:
            (S, Mc), decoupled = refined, True
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
    If an integer X exists, returns (S T, T^-1 Mc T) for T = [[I, X], [0, I]],
    the latter being Mc with its top-right block zeroed; otherwise None."""
    d = len(Mc)
    r = d - k
    A = [row[:k] for row in Mc[:k]]
    D = [row[k:] for row in Mc[k:]]
    C = [row[k:] for row in Mc[:k]]
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
    x = _solve_integer(rows, rhs)
    if x is None:
        return None
    T = identity(d)
    for i in range(k):
        T[i][k:] = x[i * r:(i + 1) * r]
    return mat_mul(S, T), [row[:k] + [0] * r for row in Mc[:k]] + Mc[k:]
