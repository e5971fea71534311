"""Independent brute-force oracles: plain matrix arithmetic and free-word expansion.

Nothing here touches the structure-tensor pipeline; these routines exist so
that derived values can be cross-checked against a second, unrelated code
path (dense matrix products, exact Gaussian elimination, and expansion in the
free associative algebra).
"""

from __future__ import annotations

from .scalars import as_scalar, scalar


# ---------------------------------------------------------------------------
# dense exact matrices (tuples of tuples of scalars)


def mat(rows):
    return tuple(tuple(as_scalar(x) for x in row) for row in rows)


def mat_zero(n, m=None):
    m = n if m is None else m
    return tuple((0,) * m for _ in range(n))


def mat_identity(n):
    return tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n))


def mat_diag(entries):
    entries = tuple(map(as_scalar, entries))
    n = len(entries)
    return tuple(tuple(entries[r] if r == c else 0 for c in range(n)) for r in range(n))


def mat_unit(n, r, c):
    return tuple(
        tuple(1 if (i, j) == (r, c) else 0 for j in range(n)) for i in range(n)
    )


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a, coeff):
    coeff = as_scalar(coeff)
    return tuple(tuple(coeff * x for x in row) for row in a)


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = [[0] * m for _ in range(n)]
    for r in range(n):
        for t in range(k):
            x = a[r][t]
            if x:
                row = b[t]
                for c in range(m):
                    y = row[c]
                    if y:
                        out[r][c] += x * y
    return tuple(tuple(row) for row in out)


def mat_commutator(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def mat_transpose(a):
    return tuple(zip(*a))


def mat_is_symmetric(a):
    return a == mat_transpose(a)


def mat_inverse(a):
    """Exact inverse by Gaussian elimination; raises on singular input."""
    n = len(a)
    work = [list(row) + list(ident_row) for row, ident_row in zip(a, mat_identity(n))]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            raise ZeroDivisionError("matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        lead = work[col][col]
        if lead != 1:
            inv = scalar(lead.denominator, lead.numerator)
            work[col] = [x * inv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return tuple(tuple(as_scalar(row[n + c]) for c in range(n)) for row in work)


def mat_det3(a):
    """Determinant of a 3x3 matrix (used for form nondegeneracy)."""
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = a
    return (
        a11 * (a22 * a33 - a23 * a32)
        - a12 * (a21 * a33 - a23 * a31)
        + a13 * (a21 * a32 - a22 * a31)
    )


# ---------------------------------------------------------------------------
# free associative words: {word tuple: coefficient}


def word(symbol):
    return {(symbol,): 1}


def word_add(a, b, coeff=1):
    out = dict(a)
    for w, c in b.items():
        t = out.get(w, 0) + coeff * c
        if t:
            out[w] = t
        else:
            del out[w]
    return out


def word_scale(a, coeff):
    if not coeff:
        return {}
    return {w: coeff * c for w, c in a.items()}


def word_mul(a, b):
    out: dict = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = wa + wb
            t = out.get(w, 0) + ca * cb
            if t:
                out[w] = t
            else:
                del out[w]
    return out


def word_triple(a, b, c):
    """<a, b, c> = abc + cba in the free associative algebra."""
    return word_add(word_mul(word_mul(a, b), c), word_mul(word_mul(c, b), a))


def word_commutator(a, b):
    return word_add(word_mul(a, b), word_mul(b, a), -1)


def word_is_zero(a):
    return not a
