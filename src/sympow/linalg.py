"""Dense exact linear algebra over GF(p^e).

A matrix is a 2-D numpy int64 array of field codes (see gf.Field); the field
travels alongside as an explicit argument.  Over an extension field a 2-D
product with a monomial factor, such as Sym^n of a permutation action, is a
gather (`_mm_monomial`).  Every other product is an exact float64 BLAS
product mod p (`_mm_prime`, split where exactness needs it).  Over GF(p^2)
with p <= 19 the two base-p digits of each code of 2-D operands are
Kronecker-packed into one float64 (Field.kron_plan, `_mm_kron`); every other
extension field multiplies A's digits by those of x^i B (`_mm_xpow`).

Elimination uses first-nonzero pivoting (row order, then column order), which
makes every echelon form, kernel basis and solve deterministic.  The blocked
right-looking elimination, `forward_echelon` then `back_substitute` (which
`rref` runs back to back), gives the same result as the one-pivot-at-a-time
reference `_echelon_naive` in `tests/oracles.py`: it reassociates the work
into matrix products, and with the pivots fixed the echelon form, reduced or
not, is unique.  Differential tests keep the two in lockstep.  A caller that may need only
the pivots keeps the forward form and back-substitutes it later, if at all.
Outside the products, elimination runs on Field's vector ops, the same for
every field: a panel's pivot rows reach the rest through the inverse of its
lower-triangular multiplier block, built by forward substitution one column
at a time (`_invert_lower`), and the only scalar call is `Field.inv` on each
pivot.

An echelon form is extended one way and finished one way.  Rows whose
leading columns are known and ascend, below rows whose lead is not known,
are brought to an echelon form from those leads (`echelon_from_leads`):
only the rows whose lead is unknown or repeats are eliminated.  The Koszul
maps' rows come with their leads; the free peel stacks new rows above an
RREF.  That form is not the first-nonzero one, so it is read only through
what is unique to the row space: its pivots, and the RREF that
`back_substitute` makes of it, bottom up on the non-pivot columns alone.

Matrix text format: a `rows cols` header line, then one row per line of
scalar serializations separated by spaces.
"""

from __future__ import annotations

import numpy as np

from .gf import Field, _mod_p

_PANEL = 128
# from this many entries on, elimination splits panels recursively down to
# _LEAF columns, and back-substitution takes _LEAF rows at a time
_SPLIT_CELLS = 1 << 15
_LEAF = 16
# below this many inner columns per packed product (p > 19), the x-power
# product beats Kronecker packing
_KRON_MIN_STEP = 16
# entries per row block of a packed product's temporaries
_BLOCK_ELEMS = 1 << 16


def zeros(m: int, n: int) -> np.ndarray:
    return np.zeros((m, n), dtype=np.int64)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def _mm_prime(p: int, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Exact A @ B mod p for int64 or float64 residue matrices or stacks of them."""
    k = A.shape[-1]
    if not A.size or not B.size:
        return np.zeros(A.shape[:-1] + B.shape[-1:], dtype=np.int64)
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if (p - 1) ** 2 * k < 2**53:
        return _mod_p((A @ B).astype(np.int64), p)
    if (p - 1) ** 2 <= 2**53:
        # split the inner dimension
        step = max(1, 2**53 // (p - 1) ** 2)
        acc = np.zeros(A.shape[:-1] + B.shape[-1:], dtype=np.int64)
        for s in range(0, k, step):
            acc += _mod_p((A[..., s:s + step] @ B[..., s:s + step, :]).astype(np.int64), p)
        return _mod_p(acc, p)
    # large prime: 16-bit operand split, exact for k up to 2**21
    a1, a0 = np.divmod(A, 1 << 16)
    b1, b0 = np.divmod(B, 1 << 16)
    parts = []
    for (x, y, shift) in ((a1, b1, 32), (a1, b0, 16), (a0, b1, 16), (a0, b0, 0)):
        C = _mod_p((x @ y).astype(np.int64), p)
        C *= pow(2, shift, p)
        parts.append(_mod_p(C, p))
    return _mod_p(sum(parts), p)


def _block(rows, cols):
    """Index of W[rows][:, cols], for slices or index arrays."""
    if isinstance(rows, np.ndarray) and isinstance(cols, np.ndarray):
        return np.ix_(rows, cols)
    return rows, cols


def _mm_kron(F: Field, A: np.ndarray, B: np.ndarray, dest: np.ndarray,
             accumulate: bool, rows=None, cols=slice(None), negate: bool = False) -> None:
    """dest = A @ B (or dest += A @ B; -A for A with `negate`) over GF(p^2), in place.

    With an index array `rows`, row i of A @ B lands in dest row rows[i];
    `cols` (a slice or an index array) picks dest's columns.  Codes are
    Kronecker-packed (Field.kron_plan), so each BLAS product is exact; rows
    of A and dest go in blocks, so apart from packed B every temporary stays
    a few hundred KB.
    """
    step = F.kron_plan()[1]
    pb = F.kron_pack(B)
    k = A.shape[1]
    nrows = max(1, _BLOCK_ELEMS // max(1, k, B.shape[1]))
    gather = rows is not None or isinstance(cols, np.ndarray)
    for r0 in range(0, A.shape[0], nrows):
        at = _block(slice(r0, r0 + nrows) if rows is None else rows[r0:r0 + nrows], cols)
        blk = dest[at]
        pa = F.kron_pack(A[r0:r0 + nrows], negate)
        added = accumulate
        for s in range(0, k, step):
            X = pa[:, s:s + step] @ pb[s:s + step]
            # the entries are integers below 2**52, so adding 2**52 pins the
            # exponent and leaves each integer in the low mantissa bits
            X += 2.0**52
            X = X.view(np.int64)
            X &= (1 << 52) - 1
            part = F.kron_unpack(X)
            if added:
                F.vec_add_into(blk, part)
            else:
                blk[...] = part
                added = True
        if gather:
            dest[at] = blk


def _uses_kron(F: Field, k: int) -> bool:
    return F.e == 2 and k > 0 and F.kron_plan()[1] >= _KRON_MIN_STEP


def mat_submul_into(F: Field, W: np.ndarray, A: np.ndarray, B: np.ndarray,
                    rows=None, cols=slice(None)) -> None:
    """W -= A @ B in place (W may be a view).

    With an index array `rows`, only W's rows rows[i] change, by row i of
    A @ B; `cols` (a slice or an index array) restricts the columns.
    """
    if _uses_kron(F, A.shape[1]):
        _mm_kron(F, A, B, W, accumulate=True, rows=rows, cols=cols, negate=True)
    else:
        at = _block(slice(None) if rows is None else rows, cols)
        W[at] = F.vec_sub(W[at], mat_mul(F, A, B))


def _mm_xpow(F: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B over an extension field as one GF(p) product.

    With A = sum_i A_i x^i over its digit matrices, digit l of A @ B is
    sum_i A_i @ digit_l(x^i B): the A_i side by side, (m, e*k), times the
    (e*k, e*n) matrix with block (i, l) digit l of x^i B.
    """
    e = F.e
    k, n = B.shape[-2:]
    digits = F.split_layers(B)
    xb = np.empty(B.shape[:-2] + (e, k, e, n))
    for i in range(e):
        if i:
            digits = F.times_x(digits)
        xb[..., i, :, :, :] = np.moveaxis(digits, 0, -2)
    a = np.ascontiguousarray(np.moveaxis(F.split_layers(A), 0, -2), dtype=np.float64)
    C = _mm_prime(F.p, a.reshape(A.shape[:-1] + (e * k,)),
                  xb.reshape(B.shape[:-2] + (e * k, e * n)))
    # C's digits are reduced, so one small product joins them into codes
    return F.p ** np.arange(e) @ C.reshape(C.shape[:-1] + (e, n))


def _monomial_picks(X: np.ndarray, axis: int):
    """(index, value) of the lone nonzero of each row (axis 1) or column (axis 0) of X.

    None when one holds two; an all-zero one picks a zero.  Values broadcast.
    """
    nnz = np.count_nonzero(X)
    if nnz > X.shape[1 - axis]:
        return None
    idx = X.argmax(axis=axis)  # codes are nonnegative: a nonzero wins
    vals = np.take_along_axis(X, np.expand_dims(idx, axis), axis)
    return (idx, vals) if np.count_nonzero(vals) == nnz else None


def _mm_monomial(F: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray | None:
    """A @ B as a fresh int64 gather when A or B is monomial, else None.

    Rows of B that A picks, or columns of A that B picks, scaled by the picks.
    """
    if (picks := _monomial_picks(A, 1)) is not None:
        out = B[picks[0]]
    elif (picks := _monomial_picks(B, 0)) is not None:
        out = A[:, picks[0]]
    else:
        return None
    out, vals = out.astype(np.int64, copy=False), picks[1]
    if vals.max(initial=0) > 1:
        return F.vec_mul(out, vals)
    if not vals.all():
        out *= vals  # values 0 and 1: clear what picks a zero
    return out


def mat_mul(F: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Exact product of code matrices over F, or of (c, m, k) and (c, k, n) stacks.

    Over an extension field a 2-D product with a monomial factor is a gather
    (`_mm_monomial`), checked against the dense `_mm_kron` and `_mm_xpow`.
    """
    if A.shape[-1] != B.shape[-2]:
        raise ValueError(f"dimension mismatch {A.shape} @ {B.shape}")
    if F.e == 1:
        return _mm_prime(F.p, A, B)
    if A.ndim == B.ndim == 2 and A.shape[1] and (out := _mm_monomial(F, A, B)) is not None:
        return out
    if A.ndim == 2 and _uses_kron(F, A.shape[1]):
        out = np.empty((A.shape[0], B.shape[1]), dtype=np.int64)
        _mm_kron(F, A, B, out, accumulate=False)
        return out
    return _mm_xpow(F, A, B)


def _invert_lower(F: Field, M: np.ndarray, T: np.ndarray, t0: int, t1: int) -> None:
    """Set T[t0:t1, t0:t1] to the inverse of diag(1/s) + (the strict lower part of M).

    The scales s sit on T's diagonal already, and T is zero below it.  With
    T the inverse, row j of T @ U is s[j] * (U[j] - M[j, :j] @ (T @ U)[:j]):
    the panel's own row operations, done to the trailing part of its pivot
    rows in one product.  Forward substitution by columns: once column l of
    M is reached, row l of T is final, and the rows below it take
    s * M[:, l] times that row away, one vector op per column.
    """
    B = T[t0:t1, t0:t1]
    S = F.vec_mul(B.diagonal()[:, None], M[t0:t1, t0:t1])  # row j scaled by s[j]
    for l in range(t1 - t0 - 1):
        mult = S[l + 1:, l]
        if mult.any():
            B[l + 1:, :l + 1] = F.vec_submul(B[l + 1:, :l + 1], mult[:, None],
                                             B[l, :l + 1][None, :])


def _join_lower(F: Field, M: np.ndarray, T: np.ndarray, t0: int, t1: int, t2: int) -> None:
    """Fill T[t1:t2, t0:t1] once both diagonal blocks are inverted.

    [[X, 0], [C, Y]]^-1 has lower block -Y^-1 @ C @ X^-1.
    """
    C = M[t1:t2, t0:t1]
    if np.any(C):
        T[t1:t2, t0:t1] = F.vec_neg(
            mat_mul(F, T[t1:t2, t1:t2], mat_mul(F, C, T[t0:t1, t0:t1])))


def _submul_rows(F: Field, W: np.ndarray, r: int, A: np.ndarray, src: slice,
                 cols: slice) -> None:
    """W[r:r + len(A), cols] -= A @ W[src, cols], in place, for a slice `cols`.

    Rows where A is zero and columns where W[src] is zero stay as they are,
    so the product skips them.
    """
    nz = np.flatnonzero(A.any(axis=1))
    idx = np.arange(W.shape[1])[cols]
    keep = idx[W[src].any(axis=0)[idx]]
    if not nz.size or not keep.size:
        return
    if nz.size == A.shape[0] and keep.size == idx.size:
        mat_submul_into(F, W[r:r + nz.size, cols], A, W[src, cols])
    else:
        mat_submul_into(F, W, A[nz], W[src][:, keep], rows=r + nz, cols=keep)


def _apply_pivots(F: Field, W: np.ndarray, M: np.ndarray, T: np.ndarray,
                  base: int, r0: int, r1: int, cols: slice) -> None:
    """Bring W[r0:, cols] up to date with the panel's pivot rows r0..r1-1.

    Row i of M and of T belongs to row base + i of W, column t to the pivot
    in row base + t.  M holds the multipliers, T the inverse from
    `_invert_lower`.
    """
    t0, t1 = r0 - base, r1 - base
    U = W[r0:r1, cols]
    if not U.any():
        return
    U[...] = mat_mul(F, T[t0:t1, t0:t1], U)
    _submul_rows(F, W, r1, M[t1:, t0:t1], slice(r0, r1), cols)


def _swap_rows(X: np.ndarray, a: int, b: int, cols: slice) -> None:
    """Swap X[a, cols] and X[b, cols] by basic slicing, cheaper than a gather."""
    t = X[a, cols].copy()
    X[a, cols] = X[b, cols]
    X[b, cols] = t


def _eliminate(F: Field, W: np.ndarray, M: np.ndarray, T: np.ndarray,
               pivots: list[int], base: int, r: int, c0: int, c1: int,
               leaf: int, invert: bool) -> int:
    """Forward-eliminate W[r:, c0:c1] in place; returns the row after the last pivot.

    Columns wider than `leaf` are halved: the left half's pivots reach the
    right half through `_apply_pivots`, so the pivot-at-a-time loop only
    ever sweeps `leaf` columns.  Each pivot's multipliers go to M and its
    inverse leading entry to T's diagonal.  A pivot's row swap moves only
    the leaf's columns of W and the leaf's own multipliers; the rest of the
    rows of W and M follow in one permutation when the leaf ends.  With
    `invert`, T holds the inverse for the pivots found here on return.
    """
    if c1 - c0 > leaf:
        h = c0 + (c1 - c0) // 2
        r1 = _eliminate(F, W, M, T, pivots, base, r, c0, h, leaf, True)
        if r1 > r:
            _apply_pivots(F, W, M, T, base, r, r1, slice(h, c1))
        r2 = _eliminate(F, W, M, T, pivots, base, r1, h, c1, leaf, invert)
        if invert and r < r1 < r2:
            _join_lower(F, M, T, r - base, r1 - base, r2 - base)
        return r2
    r0 = r
    m = W.shape[0]
    # came[k]: the row, as it stood on entry, now at row k (moved rows only)
    came: dict[int, int] = {}
    for c in range(c0, c1):
        if r == m:
            break
        rows = np.nonzero(W[r:, c])[0]
        if rows.size == 0:
            continue
        i = r + int(rows[0])
        if i != r:
            # rows r and i are zero left of c, and the leaf has not touched
            # them right of c1 or M left of r0: swap what it has touched
            _swap_rows(W, r, i, slice(c, c1))
            if r > r0:
                _swap_rows(M, r - base, i - base, slice(r0 - base, r - base))
            came[r], came[i] = came.get(i, i), came.get(r, r)
        s = F.inv(int(W[r, c]))
        # columns c0..c-1 are zero at and below row r, so skip them
        W[r, c:c1] = F.vec_mul(W[r, c:c1], np.int64(s))
        mult = W[r + 1:, c].copy()
        nz = np.nonzero(mult)[0]
        if nz.size:
            rows_idx = r + 1 + nz
            W[rows_idx, c:c1] = F.vec_submul(
                W[rows_idx, c:c1], mult[nz][:, None], W[r, c:c1][None, :]
            )
        M[r + 1 - base:, r - base] = mult
        T[r - base, r - base] = s
        pivots.append(c)
        r += 1
    # one row permutation for the rest of W and of M
    moved = [k for k, v in came.items() if k != v]
    if moved:
        dst, src = np.array(moved), np.array([came[k] for k in moved])
        W[dst, c1:] = W[src, c1:]
        M[dst - base, :r0 - base] = M[src - base, :r0 - base]
    if invert:
        _invert_lower(F, M, T, r0 - base, r - base)
    return r


def _leaf(W: np.ndarray) -> int:
    return _LEAF if W.size >= _SPLIT_CELLS else _PANEL


def forward_echelon(F: Field, A: np.ndarray, overwrite: bool = False):
    """Blocked forward elimination of a copy of A; returns (W, pivots).

    W is the row echelon form `oracles._echelon_naive(F, A, reduce=False)` gives:
    leading entries 1, zeros below them, nothing cleared above.  Columns go
    in panels of _PANEL; each panel's pivots reach the columns right of it
    through two products (`_apply_pivots`).  From _SPLIT_CELLS entries on,
    panels split recursively down to _LEAF columns, so nearly all the work
    runs as matrix products.  `back_substitute` finishes W into the RREF.
    With `overwrite`, an int64 A is itself eliminated and returned as W, so
    a caller that gives A up never holds it and W at once.
    """
    W = A.astype(np.int64, copy=not overwrite)
    m, n = W.shape
    leaf = _leaf(W)
    pivots: list[int] = []
    r = 0
    c0 = 0
    while r < m and c0 < n:
        c1 = min(c0 + _PANEL, n)
        base = r
        k = min(c1 - c0, m - base)  # most pivots this panel can hold
        # multiplier buffer, rows aligned with W[base:] through every swap
        M = zeros(m - base, k)
        # the inverse `_apply_pivots` needs, rows and columns as M's columns
        T = zeros(k, k)
        r = _eliminate(F, W, M, T, pivots, base, r, c0, c1, leaf, c1 < n)
        if r > base and c1 < n:
            _apply_pivots(F, W, M, T, base, base, r, slice(c1, None))
        c0 = c1
    return W, pivots


def back_substitute(F: Field, W: np.ndarray, pivots: list[int]) -> None:
    """Turn an echelon form W, leading entries 1, into the RREF of its rows, in place.

    With the pivots fixed the reduced form is unique, so this is the RREF
    `oracles._echelon_naive` gives.  RREF row j is W's row j less
    W[j, pivots[l]] times RREF row l for each l > j, so the multipliers are
    W's own entries and only the non-pivot columns (a rank x free copy)
    change.  Pivot rows go bottom up, `_leaf(W)` at a time: inside a block
    one vector op per pivot clears it in the block's rows above it, then
    one product clears the block's pivot columns in every row above the
    block.  The pivot columns become the identity at the end.
    """
    k = len(pivots)
    if not k:
        return
    piv = np.array(pivots)
    free = np.ones(W.shape[1], dtype=bool)
    free[piv] = False
    free = np.flatnonzero(free)
    X = W[:k, free]
    if free.size:
        leaf = _leaf(W)
        for j1 in range(k, 0, -leaf):
            j0 = max(0, j1 - leaf)
            U = W[j0:j1, piv[j0:j1]]
            # U is unit upper triangular: the pivots with a nonzero above
            # them, bottom up
            for j in np.flatnonzero((U != 0).sum(axis=0) > 1)[::-1]:
                X[j0:j0 + j] = F.vec_submul(X[j0:j0 + j], U[:j, j, None], X[j0 + j])
            if j0:
                _submul_rows(F, X, 0, W[:j0, piv[j0:j1]], slice(j0, j1), slice(None))
    W[:k] = 0
    W[:k, free] = X
    W[np.arange(k), piv] = 1


def _move_rows(W: np.ndarray, src: np.ndarray, dst: np.ndarray) -> None:
    """W[dst] = W[src] in place, for ascending src with dst <= src.

    Rows go _PANEL at a time in ascending order: a block's targets come
    before every later block's sources, so no row is overwritten before it
    moves, and no temporary holds more than one block.
    """
    if np.array_equal(src, dst):
        return
    for b0 in range(0, len(src), _PANEL):
        W[dst[b0:b0 + _PANEL]] = W[src[b0:b0 + _PANEL]]


def _reduce_by_pivot_rows(F: Field, X: np.ndarray, B: np.ndarray, lead: np.ndarray) -> None:
    """X -= C @ B in place, with C chosen so that X vanishes at the columns `lead`.

    B's rows lead with 1 at the ascending columns `lead`, so B[:, lead] is
    unit upper triangular and C solves C @ B[:, lead] = X[:, lead]: forward
    substitution one column at a time over _LEAF columns, each leaf reaching
    the rest of the block through one product.  Then one product updates X
    from the block's first lead on.  Rows and columns of zeros are skipped.
    """
    C = X[:, lead]
    if not C.any():
        return
    U = B[:, lead]
    b = len(lead)
    # U is unit upper triangular; the identity (B in RREF) leaves C as it is
    for l0 in range(0, b, _LEAF) if np.count_nonzero(U) > b else ():
        l1 = min(l0 + _LEAF, b)
        # the leaf's columns whose pivot row reaches a later lead of the leaf
        for j in l0 + np.flatnonzero(np.triu(U[l0:l1, l0:l1], 1).any(axis=1)):
            rows = np.flatnonzero(C[:, j])
            if rows.size:
                C[rows, j + 1:l1] = F.vec_submul(C[rows, j + 1:l1], C[rows, j][:, None],
                                                 U[j, None, j + 1:l1])
        A = C[:, l0:l1]
        rows = np.flatnonzero(A.any(axis=1))
        if l1 < b and rows.size and U[l0:l1, l1:].any():
            mat_submul_into(F, C, A[rows], U[l0:l1, l1:], rows=rows, cols=slice(l1, None))
    rows = np.flatnonzero(C.any(axis=1))
    mat_submul_into(F, X, C[rows], B[:, lead[0]:], rows=rows, cols=slice(lead[0], None))


def echelon_from_leads(F: Field, W: np.ndarray, leads: np.ndarray):
    """An echelon form of W's rows, computed in W in place; returns (W, pivots).

    leads[i] is the column of row i's first nonzero entry, or -1 when it is
    not known, and leads ascend, so rows of unknown lead come first.  The
    first row of each known lead is a pivot row as it stands, scaled to lead
    with 1.  Only the other rows, whose lead is unknown or repeats, are
    copied out and eliminated: reduced against the pivot rows, _PANEL at a
    time, until they vanish at every lead (`_reduce_by_pivot_rows`), then
    `forward_echelon` on the other columns.  The pivot rows and that echelon
    form's rank rows lead at distinct columns, so merged in place by pivot
    they are an echelon form of W's rows, with leading entries 1 and zero
    rows below.  It need not be `forward_echelon(W)`, but its pivots are the
    same and so is its RREF after `back_substitute`: both are unique to the
    row space.
    """
    n = W.shape[1]
    repeat = leads < 0
    repeat[1:] |= leads[1:] == leads[:-1]
    X = W[repeat]
    src = np.flatnonzero(~repeat)
    lead = leads[src]
    head = W[src, lead]
    for b0 in range(0, len(src), _PANEL):
        at = src[b0:b0 + _PANEL]
        B = W[at]
        if (head[b0:b0 + _PANEL] != 1).any():
            B = F.vec_mul(B, F.vec_inv(head[b0:b0 + _PANEL])[:, None])
            W[at] = B
        if X.size:
            _reduce_by_pivot_rows(F, X, B, lead[b0:b0 + _PANEL])
    new = np.zeros(0, dtype=np.int64)
    if X.size:
        rest = np.ones(n, dtype=bool)
        rest[lead] = False
        rest = np.flatnonzero(rest)
        Y, piv = forward_echelon(F, X[:, rest], overwrite=True)
        new = rest[piv]
    # pivot row i moves up: the new pivots before lead[i] come from the
    # remainders of the rows of unknown or repeated lead before it, at most
    # as many
    _move_rows(W, src, np.arange(len(src)) + np.searchsorted(new, lead))
    if new.size:
        at = np.arange(len(new)) + np.searchsorted(lead, new)
        W[at] = 0
        W[at[:, None], rest] = Y[:len(new)]
    W[len(src) + len(new):] = 0
    return W, np.sort(np.concatenate([lead, new])).tolist()


def rref(F: Field, A: np.ndarray):
    """Reduced row echelon form: returns (R, rank, pivot column list)."""
    R, pivots = forward_echelon(F, A)
    back_substitute(F, R, pivots)
    return R, len(pivots), pivots


def pivot_columns(F: Field, A: np.ndarray) -> list[int]:
    """rref(F, A)[2] by forward elimination alone, with no back-substitution."""
    return forward_echelon(F, A)[1]


def rank(F: Field, A: np.ndarray) -> int:
    return len(pivot_columns(F, A))


def kernel_basis(F: Field, A: np.ndarray) -> np.ndarray:
    """Columns form the canonical RREF-derived basis of the right kernel.

    Shape (cols, cols - rank); free columns in ascending order, each basis
    vector has a 1 at its free coordinate.
    """
    R, rk, pivots = rref(F, A)
    return kernel_from_rref(F, R, rk, pivots, A.shape[1])


def kernel_from_rref(F: Field, R: np.ndarray, rk: int, pivots: list[int], n: int) -> np.ndarray:
    """The kernel_basis construction from an already computed rref."""
    pivset = set(pivots)
    free = [c for c in range(n) if c not in pivset]
    K = zeros(n, len(free))
    if free:
        K[free, np.arange(len(free))] = 1
        if rk:
            K[np.ix_(pivots, np.arange(len(free)))] = F.vec_neg(R[:rk, free])
    return K


def solve(F: Field, A: np.ndarray, b: np.ndarray):
    """A particular solution of Ax = b, or None when inconsistent."""
    b = np.asarray(b, dtype=np.int64).reshape(-1)
    if b.shape[0] != A.shape[0]:
        raise ValueError("solve: incompatible shapes")
    aug = np.hstack([A, b[:, None]])
    R, rk, pivots = rref(F, aug)
    if pivots and pivots[-1] == A.shape[1]:
        return None
    x = np.zeros(A.shape[1], dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = R[i, A.shape[1]]
    return x


def inv(F: Field, A: np.ndarray) -> np.ndarray:
    n = A.shape[0]
    if A.shape[1] != n:
        raise ValueError("inv needs a square matrix")
    R, rk, pivots = rref(F, np.hstack([A, identity(n)]))
    if any(c >= n for c in pivots):
        raise ValueError("matrix is singular")
    return R[:, n:].copy()


def min_poly(F: Field, A: np.ndarray) -> np.ndarray:
    """Minimal polynomial of a square matrix, monic little-endian coefficients.

    Stacks vectorized powers I, A, A^2, ... as columns; the first column that
    is dependent on its predecessors has index equal to the degree, and the
    dependence coefficients are the lower-order terms.  Columns 0..deg-1
    are the first pivots, so the RREF holds those coefficients in column
    deg, rows 0..deg-1.
    """
    d = A.shape[0]
    if d == 0:
        return np.array([1], dtype=np.int64)
    cur = identity(d)
    cols = [cur.reshape(-1)]
    for _ in range(d):
        cur = mat_mul(F, cur, A)
        cols.append(cur.reshape(-1))
    S = np.stack(cols, axis=1)
    R, _, piv = rref(F, S)
    pivset = set(piv)
    deg = next(j for j in range(d + 1) if j not in pivset)
    return np.concatenate([F.vec_neg(R[:deg, deg]), np.array([1], dtype=np.int64)])


def mat_eval_poly(F: Field, coeffs: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Evaluate a little-endian coefficient vector at a square matrix."""
    d = A.shape[0]
    out = zeros(d, d)
    I = identity(d)
    for c in reversed(np.asarray(coeffs, dtype=np.int64)):
        out = mat_mul(F, out, A)
        if c:
            out = F.vec_add(out, F.vec_mul(I, np.int64(int(c))))
    return out


def block_diag(blocks: list[np.ndarray]) -> np.ndarray:
    m = sum(b.shape[0] for b in blocks)
    n = sum(b.shape[1] for b in blocks)
    out = zeros(m, n)
    i = j = 0
    for b in blocks:
        out[i:i + b.shape[0], j:j + b.shape[1]] = b
        i += b.shape[0]
        j += b.shape[1]
    return out


def rand_mat(F: Field, rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    return rng.integers(0, F.q, size=(m, n), dtype=np.int64)


def mat_to_text(F: Field, A: np.ndarray) -> str:
    lines = [f"{A.shape[0]} {A.shape[1]}"]
    for row in A:
        lines.append(" ".join(F.scalar_str(int(a)) for a in row))
    return "\n".join(lines) + "\n"


def mat_from_text(F: Field, text: str) -> np.ndarray:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    try:
        m, n = (int(t) for t in lines[0].split())
    except Exception as exc:
        raise ValueError(f"bad matrix header {lines[0]!r}") from exc
    if len(lines) != m + 1:
        raise ValueError(f"expected {m} rows, got {len(lines) - 1}")
    out = zeros(m, n)
    for i, ln in enumerate(lines[1:]):
        toks = ln.split()
        if len(toks) != n:
            raise ValueError(f"row {i} has {len(toks)} entries, expected {n}")
        out[i] = [F.scalar_parse(t) for t in toks]
    return out
