"""Concrete algebras: skew-symmetric and full matrix algebras with their
operator families.

Entries are built from sparse matrices ({(row, col): scalar}, nonzero entries
only) and sparse products that skip empty partial products, so building an
entry takes time roughly proportional to its structure tensors.  The dense
matrix-level builders on CatalogEntry (expand, operator_from_matrix_map and
the *_tensor_from_matrices methods) are the oracle route: the tests compare
every small entry with them, and the findings document uses them.

Entries are built, not checked: their brackets and triples are checked where
something reads them (Lie-ness by the constructors that need a Lie bracket,
a triple identity by the triple suites and prove_jts), exactly as for an
algebra read from a file.  The tests check every entry's base structures.
An entry records no property of its operators: callers check each one they
rely on.
"""

from __future__ import annotations

import itertools
import random
import re

from .core import (
    BilinearStructure,
    FrozenRecord,
    Operator,
    TrilinearStructure,
    WorkbenchError,
    guard_scan,
    vec_iadd,
)
from .oracles import (
    mat,
    mat_add,
    mat_det3,
    mat_diag,
    mat_identity,
    mat_is_symmetric,
    mat_scale,
    mat_sub,
    mat_unit,
    mat_zero,
)
from .sampling import random_matrix, random_symmetric_matrix
from .scalars import ScalarError, as_scalar, common_denominator, parse_scalar, read_int, scalar


class CatalogError(WorkbenchError):
    pass


class CatalogEntry(FrozenRecord):
    """A named algebra: basis matrices, structure tensors, named operators.
    family is "gl" or "so" and n the size of the underlying matrices.

    Entries compare by identity.
    """

    __slots__ = (
        "name", "family", "n", "basis", "lead_positions", "bracket", "triple", "operators", "extra_triples", "q", "form"
    )

    _defaults = {"triple": None, "operators": dict, "extra_triples": dict, "q": None, "form": None}

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @property
    def dim(self) -> int:
        return len(self.basis)

    def expand(self, M) -> dict:
        """Coordinates of a matrix in the entry's basis; errors if outside the span."""
        coords = {}
        for i, (r, c) in enumerate(self.lead_positions):
            v = as_scalar(M[r][c])
            if v:
                coords[i] = v
        recon = mat_zero(self.n)
        for i, ci in coords.items():
            recon = mat_add(recon, mat_scale(self.basis[i], ci))
        if recon != mat(M):
            raise CatalogError("matrix does not lie in the basis span")
        return coords

    def operator_from_matrix_map(self, fn) -> Operator:
        """Operator matrix of a map basis-matrix -> matrix, read off column-wise."""
        cols = [self.expand(fn(b)) for b in self.basis]
        rows = tuple(
            tuple(cols[c].get(r, 0) for c in range(self.dim)) for r in range(self.dim)
        )
        return Operator(rows)

    def bilinear_tensor_from_matrices(self, fn) -> BilinearStructure:
        """Structure tensor of a bilinear matrix expression (oracle-side builder)."""
        entries = {}
        for i, bi in enumerate(self.basis):
            for j, bj in enumerate(self.basis):
                vec = self.expand(fn(bi, bj))
                if vec:
                    entries[(i, j)] = vec
        return BilinearStructure(self.dim, entries)

    def trilinear_tensor_from_matrices(self, fn) -> TrilinearStructure:
        entries = {}
        for i, bi in enumerate(self.basis):
            for j, bj in enumerate(self.basis):
                for k, bk in enumerate(self.basis):
                    vec = self.expand(fn(bi, bj, bk))
                    if vec:
                        entries[(i, j, k)] = vec
        return TrilinearStructure(self.dim, entries)


# ---------------------------------------------------------------------------
# the sparse route: matrices as {(row, col): nonzero scalar}


def _sparse(M) -> dict:
    return {(r, c): x for r, row in enumerate(M) for c, x in enumerate(row) if x}


def _sparse_mul(a: dict, b: dict) -> dict:
    """a b, summing only the partial products a[r,t] b[t,c] of stored entries."""
    rows_of_b: dict = {}
    for (t, c), y in b.items():
        rows_of_b.setdefault(t, []).append((c, y))
    out: dict = {}
    for (r, t), x in a.items():
        for c, y in rows_of_b.get(t, ()):
            v = out.get((r, c), 0) + x * y
            if v:
                out[(r, c)] = v
            else:
                del out[(r, c)]
    return out


class _SparseBasis:
    """An entry's basis as sparse matrices, with span-checked expansion and
    the tensor and operator builders of the catalog."""

    __slots__ = ("mats", "lead")

    def __init__(self, basis, lead_positions):
        self.mats = [_sparse(b) for b in basis]
        self.lead = {pos: i for i, pos in enumerate(lead_positions)}

    def expand(self, M: dict) -> dict:
        """Coordinates of a sparse matrix; errors if it is outside the span.

        Each basis matrix is 1 at its lead position, where every other basis
        matrix is 0, so a coordinate is the entry at that position.
        """
        coords = {}
        for pos, x in M.items():
            i = self.lead.get(pos)
            if i is not None:
                coords[i] = x
        recon: dict = {}
        for i, c in coords.items():
            vec_iadd(recon, self.mats[i], c)
        if recon != M:
            raise CatalogError("matrix does not lie in the basis span")
        return coords

    def commutator_tensor(self) -> BilinearStructure:
        """[X,Y] = XY - YX."""
        entries = {}
        for i, x in enumerate(self.mats):
            for j, y in enumerate(self.mats):
                xy = vec_iadd(_sparse_mul(x, y), _sparse_mul(y, x), -1)
                if xy:
                    entries[(i, j)] = self.expand(xy)
        return BilinearStructure(len(self.mats), entries)

    def jordan_triple_tensor(self) -> TrilinearStructure:
        """<X,Y,Z> = XYZ + ZYX; a pair (X, Y) with XY = YX = 0 is skipped whole."""
        entries = {}
        for i, x in enumerate(self.mats):
            for j, y in enumerate(self.mats):
                xy, yx = _sparse_mul(x, y), _sparse_mul(y, x)
                if not xy and not yx:
                    continue
                for k, z in enumerate(self.mats):
                    xyz = vec_iadd(_sparse_mul(xy, z), _sparse_mul(z, yx))
                    if xyz:
                        entries[(i, j, k)] = self.expand(xyz)
        return TrilinearStructure(len(self.mats), entries)

    def operator(self, images, d: int = 1) -> Operator:
        """Operator whose c-th column is the coordinates of images[c], divided by d."""
        cols = [self.expand(m) for m in images]
        dim = len(cols)
        return Operator(tuple(tuple(scalar(cols[c].get(r, 0), d) for c in range(dim)) for r in range(dim)))


def so_n(n: int) -> CatalogEntry:
    """Skew-symmetric n x n matrices under the commutator.

    Basis is E_ab - E_ba for a < b in lex order, except n = 3 where the
    cross-product-normalized basis ([e1,e2] = e3 cyclically) is used.
    """
    if n < 2:
        raise CatalogError("so(n) requires n >= 2")
    if n == 3:
        basis = (
            mat_sub(mat_unit(3, 2, 1), mat_unit(3, 1, 2)),
            mat_sub(mat_unit(3, 0, 2), mat_unit(3, 2, 0)),
            mat_sub(mat_unit(3, 1, 0), mat_unit(3, 0, 1)),
        )
        positions = ((2, 1), (0, 2), (1, 0))
    else:
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        basis = tuple(mat_sub(mat_unit(n, a, b), mat_unit(n, b, a)) for a, b in pairs)
        positions = tuple(pairs)
    return CatalogEntry(
        name=f"so{n}",
        family="so",
        n=n,
        basis=basis,
        lead_positions=positions,
        bracket=_SparseBasis(basis, positions).commutator_tensor(),
    )


def gl_assoc(n: int) -> CatalogEntry:
    """Full n x n matrix algebra: commutator bracket and the triple XYZ + ZYX."""
    if n < 1:
        raise CatalogError("gl(n) requires n >= 1")
    positions = tuple((i, j) for i in range(n) for j in range(n))
    basis = tuple(mat_unit(n, i, j) for i, j in positions)
    sparse = _SparseBasis(basis, positions)
    return CatalogEntry(
        name=f"gl{n}",
        family="gl",
        n=n,
        basis=basis,
        lead_positions=positions,
        bracket=sparse.commutator_tensor(),
        triple=sparse.jordan_triple_tensor(),
    )


def _products(entry: CatalogEntry, Q) -> tuple:
    """(basis, dQ, d, QX, XQ): the integer matrix dQ, d the lcm of Q's
    denominators, and its sparse products with each basis element X; Q is
    checked against the entry first."""
    Q = mat(Q)
    if len(Q) != entry.n or any(len(row) != entry.n for row in Q):
        raise CatalogError(f"Q must be {entry.n}x{entry.n} for {entry.name}")
    if entry.family == "so" and not mat_is_symmetric(Q):
        raise CatalogError("Q must be symmetric for skew-symmetric targets")
    d = common_denominator(x for row in Q for x in row)
    q = {key: x.numerator * (d // x.denominator) for key, x in _sparse(Q).items()}
    sparse = _SparseBasis(entry.basis, entry.lead_positions)
    return sparse, q, d, [_sparse_mul(q, x) for x in sparse.mats], [_sparse_mul(x, q) for x in sparse.mats]


def mult_operators(entry: CatalogEntry, Q) -> dict:
    """Multiplication operators attached to a matrix Q.

    gl entries: R1 (X -> XQ), R2 (X -> QX), their difference xi = R2 - R1,
    the sum R (X -> QX + XQ) and rho (X -> QXQ).
    so entries: Q must be symmetric (left/right multiplication alone does not
    preserve skew-symmetry); only R and rho are emitted.
    """
    # the products run on dQ, and each operator is divided back exactly by its power of d
    sparse, q, d, qx, xq = _products(entry, Q)
    rho = sparse.operator([_sparse_mul(m, q) for m in qx], d * d)
    if entry.family == "so":
        return {"R": sparse.operator([vec_iadd(dict(a), b) for a, b in zip(qx, xq)], d), "rho": rho}
    right, left = sparse.operator(xq, d), sparse.operator(qx, d)
    return {"R1": right, "R2": left, "xi": left - right, "R": left + right, "rho": rho}


def _mult_pair(entry: CatalogEntry, Q) -> tuple:
    """(R1, R2) of mult_operators on a gl entry, without the other three."""
    sparse, _, d, qx, xq = _products(entry, Q)
    return sparse.operator(xq, d), sparse.operator(qx, d)


def example1_candidates(x0=None, form=None) -> CatalogEntry:
    """so(3) with a symmetric bilinear form: both candidate triples and operators.

    Triples: two-term F(X,Y)Z + F(Y,Z)X and the standard three-term
    F(X,Y)Z + F(Y,Z)X - F(X,Z)Y (the latter is the validated JTS).
    Operator candidates: Ra X = F(X0,X) X0 (form projection) and
    Rb X = [X0, X] (bracket multiplication).
    """
    base = so_n(3)
    form = mat(form) if form is not None else mat_identity(3)
    if not mat_is_symmetric(form):
        raise CatalogError("form must be symmetric")
    if not mat_det3(form):
        raise CatalogError("form must be nondegenerate")
    x0 = tuple(map(as_scalar, x0)) if x0 is not None else (0, 0, 1)
    if len(x0) != 3:
        raise CatalogError("x0 must be a 3-vector of coordinates")

    def form_triple(terms) -> TrilinearStructure:
        """sum c F(X_a, X_b) X_out over terms (c, a, b, out), with X_0, X_1, X_2 = X, Y, Z."""
        entries = {}
        for key in itertools.product(range(3), repeat=3):
            vec: dict = {}
            for c, a, b, out in terms:
                f = form[key[a]][key[b]]
                if f:  # given a zero, vec_iadd would delete a key it never stored
                    vec_iadd(vec, {key[out]: f}, c)
            if vec:
                entries[key] = vec
        return TrilinearStructure(3, entries)

    two_terms = ((1, 0, 1, 2), (1, 1, 2, 0))  # F(X,Y)Z + F(Y,Z)X
    two_term = form_triple(two_terms)
    three_term = form_triple(two_terms + ((-1, 0, 2, 1),))  # - F(X,Z)Y

    x0_vec = {i: c for i, c in enumerate(x0) if c}
    fx0 = tuple(sum(x0[r] * form[r][c] for r in range(3)) for c in range(3))
    ra_rows = tuple(tuple(x0[r] * fx0[c] for c in range(3)) for r in range(3))
    rb_cols = [base.bracket.apply_first(x0_vec, c) for c in range(3)]
    rb_rows = tuple(tuple(rb_cols[c].get(r, 0) for c in range(3)) for r in range(3))

    return base.replace(
        name="example1-so3",
        triple=three_term,
        extra_triples={"two-term": two_term},
        operators={"Ra": Operator(ra_rows), "Rb": Operator(rb_rows)},
        form=form,
    )


# ---------------------------------------------------------------------------
# named parametrized entries


def _parse_q(spec: str, n: int, symmetric: bool):
    """The matrix a q= spec names; a bad scalar or seed in it is a CatalogError."""
    if spec == "id":
        return mat_identity(n)
    try:
        if spec.startswith("diag:"):
            entries = [parse_scalar(x) for x in spec[len("diag:"):].split(",")]
            if len(entries) != n:
                raise CatalogError(f"diag spec needs {n} entries")
            return mat_diag(entries)
        if spec.startswith("seed:"):
            rng = random.Random(read_int(spec[len("seed:"):], "seed"))
            return random_symmetric_matrix(rng, n) if symmetric else random_matrix(rng, n)
    except ScalarError as exc:
        raise CatalogError(f"q: {exc}") from None
    raise CatalogError(f"unsupported q spec: {spec!r}")


def _with_q(entry: CatalogEntry, name: str, Q=None) -> CatalogEntry:
    """entry, named name, with Q (diag(1..n) if None) and its multiplication operators."""
    Q = mat(Q) if Q is not None else mat_diag(range(1, entry.n + 1))
    return entry.replace(name=name, operators=mult_operators(entry, Q), q=Q)


def example2_gl(n: int, Q=None) -> CatalogEntry:
    """Matrix algebra with the right/left multiplication operator pair."""
    return _with_q(gl_assoc(n), f"example2-gl{n}", Q)


def example3_gl(n: int, Q=None) -> CatalogEntry:
    """example2_gl(n, Q) read for its triple XYZ + ZYX with the same operators."""
    return _with_q(gl_assoc(n), f"example3-gl{n}", Q)


def example4_so(n: int, Q=None) -> CatalogEntry:
    """Skew matrices with R X = QX + XQ and rho X = QXQ for symmetric Q."""
    return _with_q(so_n(n), f"example4-so{n}", Q)


def _example1_so(n: int) -> CatalogEntry:
    """example1_candidates() with its defaults; it has no other size than 3."""
    if n != 3:
        raise CatalogError("example1 is defined on so(3)")
    return example1_candidates()


# One row per catalog kind, a name <kind><n>, in `catalog list` order: the
# builder of its algebra at size n (gl_assoc and so_n are looked up when
# called), the dimension of that algebra, which the dim^3 guard prices before
# anything is built, whether a q= sets its operators, and its list line.
_GL = (lambda n: gl_assoc(n), lambda n: n * n)
_SO = (lambda n: so_n(n), lambda n: n * (n - 1) // 2)
_KINDS = {
    "gl": (*_GL, False, "gl<n>"),
    "so": (*_SO, False, "so<n>"),
    "example1-so": (_example1_so, lambda n: 3, False, "example1-so3"),
    "example2-gl": (*_GL, True, "example2-gl<n>[?q=diag:...|seed:<int>|id]"),
    "example3-gl": (*_GL, True, "example3-gl<n>[?q=...]"),
    "example4-so": (*_SO, True, "example4-so<n>[?q=...]"),
}


def catalog_names() -> list:
    return [line for *_, line in _KINDS.values()]


def build_entry(spec: str) -> CatalogEntry:
    """Resolve a catalog name with optional ?key=value parameters.

    An entry whose dimension exceeds the dim^3 guard is refused before
    anything is built, unless forced (opalg.forced()).  A repeated key, or a
    q on an entry that has no Q, is refused rather than ignored.
    """
    name, _, query = spec.partition("?")
    params = {}
    if query:
        for item in query.split("&"):
            key, _, value = item.partition("=")
            if not value:
                raise CatalogError(f"malformed catalog parameter: {item!r}")
            if key in params:
                raise CatalogError(f"repeated catalog parameter: {key!r}")
            params[key] = value
    size = re.search(r"(?<!\d)\d+\Z", name)
    kind = name[: size.start()] if size else None
    if kind not in _KINDS:
        raise CatalogError(f"unknown catalog entry: {name!r}")
    build, dimension, takes_q, _ = _KINDS[kind]
    try:
        n = read_int(size[0], f"catalog entry {kind}<n>: n")
    except ScalarError as exc:
        raise CatalogError(str(exc)) from None
    guard_scan(dimension(n), 3)
    if "q" in params and not takes_q:
        raise CatalogError(f"catalog entry {name!r} takes no q parameter")
    q = _parse_q(params.pop("q"), n, kind.endswith("so")) if "q" in params else None
    triple_choice = params.pop("triple", None)
    if params:
        raise CatalogError(f"unsupported catalog parameters: {sorted(params)}")
    entry = build(n)
    if takes_q:
        entry = _with_q(entry, f"{kind}{n}", q)
    if triple_choice:
        if triple_choice not in entry.extra_triples:
            raise CatalogError(f"no alternate triple named {triple_choice!r}")
        entry = entry.replace(triple=entry.extra_triples[triple_choice])
    return entry
