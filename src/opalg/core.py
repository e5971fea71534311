"""Exact structure-constant core.

Coordinate vectors are sparse dicts {index: scalar} with no stored zeros.
Operators are dense square matrices acting on coordinates; bilinear and
trilinear products are sparse structure-constant tensors.  Everything is
immutable after construction and safe to share; identity checkers scan
basis tuples in lexicographic order, so the first failure found is the
lexicographically smallest witness and reports are deterministic.

Brackets and triples share one sparse-tensor implementation (storage, row
I/O, integer form, equality and hashing); only their per-tuple kernels differ.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import types

from .formula import Formula, scan, states
from .scalars import Scalar, as_scalar, common_denominator, render_scalar, scalar


class WorkbenchError(Exception):
    """Base class for workbench errors."""


class DimensionMismatchError(WorkbenchError):
    pass


class DimensionGuardError(WorkbenchError):
    """An exhaustive scan would exceed the desk-scale guard."""


class PreconditionError(WorkbenchError):
    """A checked operation was called outside its stated precondition."""


# ---------------------------------------------------------------------------
# records


class FrozenRecord:
    """Base of the workbench's records: the fields are the subclass's
    __slots__, in order, bound from positional arguments in slot order and
    keywords by name.  A field left out or None takes the class's _defaults
    entry, called if callable (dict gives each record a fresh container); a
    field given twice, an unknown name or a missing field with no default
    raises TypeError.  A record that validates its fields keeps its own
    __init__ and stores them with _assign.  Records of one class compare by
    their field values, and no field can be assigned after __init__; a
    record hashes by its fields when they hash.

    What a subclass derives from its fields is a functools.cached_property:
    computed on first read and then kept in the record's __dict__, which
    equality, hashing, repr and replace ignore, so a replaced record computes
    it again.  Operator is one (its dim and sparse columns are derived), and
    the structure tensors keep their derived values the same way.
    """

    __slots__ = ("__dict__",)
    _defaults: dict = {}

    def __init__(self, *args, **fields):
        record, slots, defaults = self.__class__.__name__, self.__slots__, self._defaults
        given = len(args) + len(fields)
        fields.update(zip(slots, args))
        if len(fields) < given:  # a positional argument past the last slot, or a field given twice
            raise TypeError(f"{record} takes at most {len(slots)} fields, each given once")
        for name in slots:
            value = fields.pop(name, None)
            if value is None:
                if name not in defaults:
                    raise TypeError(f"{record} is missing field {name!r}")
                value = defaults[name]() if callable(defaults[name]) else defaults[name]
            object.__setattr__(self, name, value)
        if fields:
            raise TypeError(f"{record} has no field {next(iter(fields))!r}")

    def _assign(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def replace(self, **changes):
        """A new record of the same class with the given fields changed."""
        values = {name: getattr(self, name) for name in self.__slots__}
        values.update(changes)
        return self.__class__(**values)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{self.__class__.__name__} is immutable")


# Guards keep exhaustive scans at desk scale unless forced: at each limit a
# scan visits 2-5 * 10^4 basis tuples.  Measured per tuple (Python 3.11,
# Fraction scalars): about 1 us for Jacobi on gl(n), 30-45 us for a dim^2
# scan with a dense operator at dim 64-128, 10-130 us for a dim^3 triple scan
# with an operator at dim 25-49.  Arity 4 and 5 are evaluated as joins over
# the supports (formula.py), whose cost follows the nonzero products, not the
# tuples: 0.3-0.7 us per tuple for equivariance on gl(4) and gl(3), 0.05-0.2
# us for jts-jacobson on gl(4) and gl(3) (about 1 us with a loop nest); at
# dim 3-4, where the products are about as many as the tuples, a scan takes
# 1-2 ms.  So a scan at a limit takes at most a few seconds.  Formula.bind
# consults the guard before every scan and tabulation; build_entry, which
# builds every catalog and search algebra, consults the dim^3 guard first.
_SCAN_GUARDS = {2: 128, 3: 36, 4: 12, 5: 8}

# Whether the guards are lifted for the request in progress; set only by forced().
_FORCE = contextvars.ContextVar("opalg_force", default=False)


@contextlib.contextmanager
def forced(on: bool = True):
    """Lift the scan guards (or, with on=False, apply them) for the calls
    made inside the with block."""
    token = _FORCE.set(on)
    try:
        yield
    finally:
        _FORCE.reset(token)


def guard_scan(dim: int, arity: int, name: str = "") -> None:
    limit = _SCAN_GUARDS.get(arity)
    if limit is not None and dim > limit and not _FORCE.get():
        raise DimensionGuardError(
            f"{name + ': ' if name else ''}dim^{arity} scan at dim={dim} exceeds guard "
            f"(limit {limit}); set the force flag to run it anyway"
        )


# ---------------------------------------------------------------------------
# sparse coordinate vectors


def vec_iadd(acc: dict, v: dict, coeff: Scalar = 1) -> dict:
    """acc += coeff * v in place, never leaving stored zeros."""
    if not coeff:
        return acc
    for k, s in v.items():
        t = acc.get(k, 0) + coeff * s
        if t:
            acc[k] = t
        else:
            del acc[k]
    return acc


def vec_scale(v: dict, coeff: Scalar) -> dict:
    if not coeff:
        return {}
    return {k: coeff * s for k, s in v.items()}


def vec_div(v: dict, d: int) -> dict:
    """v / d exactly, for an integer vector v and an integer d > 0."""
    return {k: scalar(s, d) for k, s in v.items()}


def vec_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    return vec_iadd(out, b, -1)


def vec_gather(columns: dict, w: dict) -> dict:
    """sum_k w[k] * columns[k] for sparse columns {k: vector}."""
    acc: dict = {}
    for k, wk in w.items():
        col = columns.get(k)
        if col:
            vec_iadd(acc, col, wk)
    return acc


def vec_dense(v: dict, dim: int) -> tuple:
    return tuple(v.get(i, 0) for i in range(dim))


# The value of every absent key: read-only, so no caller can change what later lookups see.
_EMPTY = types.MappingProxyType({})


# ---------------------------------------------------------------------------
# operators


class Operator(FrozenRecord):
    """Square matrix of scalars acting on coordinates, y_r = sum_c M[r][c] x_c."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(as_scalar(x) for x in row) for row in rows)
        if not rows or any(len(row) != len(rows) for row in rows):
            raise DimensionMismatchError("operator matrix must be square and nonempty")
        self._assign(rows)

    @functools.cached_property
    def dim(self) -> int:
        return len(self.rows)

    @functools.cached_property
    def _columns(self) -> list:
        return [{r: row[c] for r, row in enumerate(self.rows) if row[c]} for c in range(self.dim)]

    @classmethod
    def identity(cls, dim: int) -> "Operator":
        return cls.diagonal((1,) * dim)

    @classmethod
    def zero(cls, dim: int) -> "Operator":
        return cls.diagonal((0,) * dim)

    @classmethod
    def diagonal(cls, entries) -> "Operator":
        entries = tuple(map(as_scalar, entries))
        n = len(entries)
        return cls(tuple(tuple(entries[r] if r == c else 0 for c in range(n)) for r in range(n)))

    def integer_form(self) -> tuple:
        """(M, d): d the least positive integer with M = d * self integer; (self, 1) if d = 1."""
        form, d = self._integer_form
        return self if form is None else form, d

    @functools.cached_property
    def _integer_form(self) -> tuple:
        """(M, d), with None for M = self, so that the record holds no reference to itself."""
        d = common_denominator(a for row in self.rows for a in row)
        if d == 1:
            return None, 1
        return Operator(tuple(tuple(a.numerator * (d // a.denominator) for a in row) for row in self.rows)), d

    def column(self, c: int) -> dict:
        """Sparse image of the c-th basis vector.  Treat as read-only."""
        return self._columns[c]

    def apply(self, v: dict) -> dict:
        acc: dict = {}
        for c, xc in v.items():
            vec_iadd(acc, self.column(c), xc)
        return acc

    def __matmul__(self, other: "Operator") -> "Operator":
        if self.dim != other.dim:
            raise DimensionMismatchError("operator dims differ")
        n = self.dim
        out = []
        for r in range(n):
            row = [0] * n
            for k in range(n):
                a = self.rows[r][k]
                if a:
                    brow = other.rows[k]
                    for c in range(n):
                        b = brow[c]
                        if b:
                            row[c] += a * b
            out.append(row)
        return Operator(out)

    def __add__(self, other: "Operator") -> "Operator":
        if self.dim != other.dim:
            raise DimensionMismatchError("operator dims differ")
        return Operator(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __sub__(self, other: "Operator") -> "Operator":
        return self + -other

    def __neg__(self) -> "Operator":
        return self.scale(-1)

    def scale(self, coeff: Scalar) -> "Operator":
        coeff = as_scalar(coeff)
        return Operator(tuple(tuple(coeff * a for a in row) for row in self.rows))

    def is_identity(self) -> bool:
        return self == Operator.identity(self.dim)

    def __repr__(self) -> str:
        return f"Operator({[[render_scalar(a) for a in row] for row in self.rows]})"


def op_polynomial(coeffs, R: Operator) -> Operator:
    """f(R) = sum coeffs[k] * R^k, with R^0 the identity (Horner form)."""
    out = Operator.zero(R.dim)
    ident = Operator.identity(R.dim)
    for c in reversed([as_scalar(c) for c in coeffs]):
        out = out @ R + ident.scale(c)
    return out


# ---------------------------------------------------------------------------
# structure tensors


def _clean_entries(dim: int, entries, arity: int) -> dict:
    clean: dict = {}
    for key, vec in entries.items():
        key = tuple(key)
        if len(key) != arity or not all(0 <= k < dim for k in key):
            raise DimensionMismatchError(f"bad index tuple {key} for dim {dim}")
        v = {}
        for k, s in vec.items():
            if not 0 <= k < dim:
                raise DimensionMismatchError(f"component index {k} out of range")
            s = as_scalar(s)
            if s:
                v[k] = s
        if v:
            clean[key] = v
    return clean


class _SparseTensor:
    """Structure constants of a product of arity basis vectors: the index
    tuple (i, j[, k]) -> the product as a sparse vector, with no stored zeros.

    Storage, row I/O and value semantics, written once for both arities; the
    subclasses hold the per-tuple kernels that the loop nests call.  Each
    subclass sets arity and kind ("bracket" or "triple").  As in FrozenRecord,
    what is derived from the entries (the hash, the entries by slot) is a
    functools.cached_property kept in __dict__.
    """

    __slots__ = ("dim", "_c", "__dict__")
    arity: int
    kind: str
    mirror_sign: int

    def __init__(self, dim: int, entries=None):
        if dim < 1:
            raise DimensionMismatchError("dimension must be positive")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_c", _clean_entries(dim, entries or {}, self.arity))

    def __setattr__(self, name, value):
        raise AttributeError(f"{TENSOR_CLASSES[self.arity].__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{TENSOR_CLASSES[self.arity].__name__} is immutable")

    @classmethod
    def from_rows(cls, dim: int, rows):
        """Build from sparse rows [*index tuple, component, scalar], e.g.
        [i, j, k, scalar] for a bracket; a duplicate (*index tuple, component)
        is an error."""
        entries: dict = {}
        for row in rows:
            row = tuple(row)
            if len(row) != cls.arity + 2:
                raise DimensionMismatchError(f"{cls.kind} row {row} needs {cls.arity + 2} fields")
            vec = entries.setdefault(row[:-2], {})
            if row[-2] in vec:
                raise WorkbenchError(f"duplicate {cls.kind} entry {row[:-1]}")
            vec[row[-2]] = as_scalar(row[-1])
        return cls(dim, entries)

    def integer_form(self) -> tuple:
        """(T, d): d the least positive integer with T = d * self integer; (self, 1) if d = 1.
        T is of the plain class for the arity, since only a proof makes a proven structure."""
        form, d = self._integer_form
        return self if form is None else form, d

    @functools.cached_property
    def _integer_form(self) -> tuple:
        """(T, d), with None for T = self, so that the structure holds no reference
        to itself and a proven one sharing its __dict__ still gets itself."""
        d = common_denominator(s for vec in self._c.values() for s in vec.values())
        if d == 1:
            return None, 1
        entries = {key: {k: s.numerator * (d // s.denominator) for k, s in v.items()} for key, v in self._c.items()}
        return TENSOR_CLASSES[self.arity](self.dim, entries), d

    def support(self):
        return self._c.keys()

    @functools.cached_property
    def mirrored(self) -> bool:
        """Whether every entry's mirror, the entry at its reversed index tuple,
        is mirror_sign times it: c(j,i) = -c(i,j) for a bracket, and so no (i,i)
        entry; c(k,j,i) = c(i,j,k) for a triple.  The symmetry the loop nests'
        orbits assume (formula.py), proven in O(entries)."""
        sign = self.mirror_sign
        return all(
            self._c.get(key[::-1]) == (vec if sign == 1 else {k: -s for k, s in vec.items()})
            for key, vec in self._c.items()
        )

    @functools.cached_property
    def _by_slot(self) -> tuple:
        by_slot = tuple({} for _ in range(self.arity))
        for key, vec in self._c.items():
            for by, index in zip(by_slot, key):
                by.setdefault(index, []).append((key, vec))
        return by_slot

    def entries_by(self, slot: int) -> dict:
        """{index: [(key, vector)]}: the entries by their index in slot (0 for
        the first), in insertion order.  Treat as read-only."""
        return self._by_slot[slot]

    def sorted_rows(self):
        """Canonical sparse listing [(*index tuple, component, scalar)] sorted by index."""
        out = []
        for key in sorted(self._c):
            vec = self._c[key]
            for k in sorted(vec):
                out.append(key + (k, vec[k]))
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, _SparseTensor)
            and self.arity == other.arity
            and self.dim == other.dim
            and self._c == other._c
        )

    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.dim, tuple((key, tuple(sorted(vec.items()))) for key, vec in sorted(self._c.items()))))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{TENSOR_CLASSES[self.arity].__name__}(dim={self.dim}, entries={len(self._c)})"


class BilinearStructure(_SparseTensor):
    """Structure constants of a bilinear product: (i, j) -> vector [e_i, e_j]."""

    __slots__ = ()
    arity, kind, mirror_sign = 2, "bracket", -1

    def value(self, i: int, j: int) -> dict:
        """[e_i, e_j] as a sparse vector.  Treat as read-only."""
        return self._c.get((i, j), _EMPTY)

    def apply(self, x: dict, y: dict) -> dict:
        acc: dict = {}
        if len(x) * len(y) <= len(self._c):
            for i, xi in x.items():
                for j, yj in y.items():
                    vec = self._c.get((i, j))
                    if vec:
                        vec_iadd(acc, vec, xi * yj)
        else:
            for (i, j), vec in self._c.items():
                xi = x.get(i)
                if xi:
                    yj = y.get(j)
                    if yj:
                        vec_iadd(acc, vec, xi * yj)
        return acc

    def apply_first(self, w: dict, j: int) -> dict:
        """[w, e_j] for a sparse vector w."""
        acc: dict = {}
        for a, wa in w.items():
            vec = self._c.get((a, j))
            if vec:
                vec_iadd(acc, vec, wa)
        return acc

    def apply_second(self, i: int, w: dict) -> dict:
        acc: dict = {}
        for b, wb in w.items():
            vec = self._c.get((i, b))
            if vec:
                vec_iadd(acc, vec, wb)
        return acc


class TrilinearStructure(_SparseTensor):
    """Structure constants of a trilinear product: (i, j, k) -> <e_i, e_j, e_k>."""

    __slots__ = ()
    arity, kind, mirror_sign = 3, "triple", 1

    def value(self, i: int, j: int, k: int) -> dict:
        return self._c.get((i, j, k), _EMPTY)

    def apply(self, x: dict, y: dict, z: dict) -> dict:
        acc: dict = {}
        for (i, j, k), vec in self._c.items():
            xi = x.get(i)
            if not xi:
                continue
            yj = y.get(j)
            if not yj:
                continue
            zk = z.get(k)
            if zk:
                vec_iadd(acc, vec, xi * yj * zk)
        return acc

    def apply_first(self, w: dict, j: int, k: int) -> dict:
        acc: dict = {}
        for a, wa in w.items():
            vec = self._c.get((a, j, k))
            if vec:
                vec_iadd(acc, vec, wa)
        return acc

    def apply_middle(self, i: int, w: dict, k: int) -> dict:
        acc: dict = {}
        for b, wb in w.items():
            vec = self._c.get((i, b, k))
            if vec:
                vec_iadd(acc, vec, wb)
        return acc

    def apply_last(self, i: int, j: int, w: dict) -> dict:
        acc: dict = {}
        for c, wc in w.items():
            vec = self._c.get((i, j, c))
            if vec:
                vec_iadd(acc, vec, wc)
        return acc

    # The two-vector kernels loop over the pairs of their vectors with a key
    # lookup where there are fewer pairs than entries with the fixed index, as
    # BilinearStructure.apply does, and over those entries otherwise.

    def apply_first_middle(self, u: dict, v: dict, k: int) -> dict:
        """<u, v, e_k>."""
        acc: dict = {}
        rows = self.entries_by(2).get(k, ())
        if len(u) * len(v) < len(rows):
            for a, ua in u.items():
                for b, vb in v.items():
                    vec = self._c.get((a, b, k))
                    if vec:
                        vec_iadd(acc, vec, ua * vb)
            return acc
        for (a, b, _), vec in rows:
            ua = u.get(a)
            if ua:
                vb = v.get(b)
                if vb:
                    vec_iadd(acc, vec, ua * vb)
        return acc

    def apply_first_last(self, u: dict, j: int, w: dict) -> dict:
        acc: dict = {}
        rows = self.entries_by(1).get(j, ())
        if len(u) * len(w) < len(rows):
            for a, ua in u.items():
                for c, wc in w.items():
                    vec = self._c.get((a, j, c))
                    if vec:
                        vec_iadd(acc, vec, ua * wc)
            return acc
        for (a, _, c), vec in rows:
            ua = u.get(a)
            if ua:
                wc = w.get(c)
                if wc:
                    vec_iadd(acc, vec, ua * wc)
        return acc

    def apply_middle_last(self, i: int, v: dict, w: dict) -> dict:
        acc: dict = {}
        rows = self.entries_by(0).get(i, ())
        if len(v) * len(w) < len(rows):
            for b, vb in v.items():
                for c, wc in w.items():
                    vec = self._c.get((i, b, c))
                    if vec:
                        vec_iadd(acc, vec, vb * wc)
            return acc
        for (_, b, c), vec in rows:
            vb = v.get(b)
            if vb:
                wc = w.get(c)
                if wc:
                    vec_iadd(acc, vec, vb * wc)
        return acc


# The plain structure class of each arity.
TENSOR_CLASSES = {2: BilinearStructure, 3: TrilinearStructure}


def _apply_tensor(t: _SparseTensor, vectors) -> dict:
    if any(i >= t.dim for v in vectors for i in v):
        raise DimensionMismatchError("vector index out of range")
    return t.apply(*vectors)


def apply_bilinear(b: BilinearStructure, x, y) -> dict:
    """Evaluate the bilinear product on sparse coordinate vectors."""
    return _apply_tensor(b, (x, y))


def apply_trilinear(t: TrilinearStructure, x, y, z) -> dict:
    return _apply_tensor(t, (x, y, z))


# ---------------------------------------------------------------------------
# check reports


class Witness(FrozenRecord):
    """Lexicographically smallest failing basis tuple plus its residual."""

    __slots__ = ("indices", "residual")

    def to_dict(self) -> dict:
        return {
            "indices": list(self.indices),
            "residual": [render_scalar(s) for s in self.residual],
        }


class CheckReport(FrozenRecord):
    __slots__ = ("name", "passed", "witness", "tuples_evaluated", "informational", "notes", "subchecks")

    _defaults = {"witness": None, "tuples_evaluated": 0, "informational": False, "notes": (), "subchecks": ()}

    def sub(self, name: str) -> "CheckReport":
        for s in self.subchecks:
            if s.name == name:
                return s
        raise KeyError(f"no sub-check named {name!r} in {self.name!r}")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "informational": self.informational,
            "witness": self.witness.to_dict() if self.witness else None,
            "tuples_evaluated": self.tuples_evaluated,
            "notes": list(self.notes),
            "subchecks": [s.to_dict() for s in self.subchecks],
        }


def aggregate_report(name: str, subchecks, informational=False) -> CheckReport:
    """Combine sub-checks; informational subs never affect the verdict."""
    subchecks = tuple(subchecks)
    asserted = [s for s in subchecks if not s.informational]
    passed = all(s.passed for s in asserted)
    witness = None
    for s in asserted:
        if not s.passed and s.witness is not None:
            witness = s.witness
            break
    return CheckReport(
        name=name,
        passed=passed,
        witness=witness,
        tuples_evaluated=sum(s.tuples_evaluated for s in subchecks),
        informational=informational,
        subchecks=subchecks,
    )


def scan_tuples(name, dim, arity, nonzero, notes=(), informational=False) -> CheckReport:
    """Exhaustive lex-order scan of dim^arity basis tuples.

    nonzero yields (indices, residual) for the failing tuples in lex order;
    the first is the smallest failure, and tuples_evaluated counts the
    tuples up to and including it (all of them on a pass).
    """
    failure = next(nonzero, None)
    witness, count = None, dim**arity
    if failure is not None:
        idx, r = failure
        witness, count = Witness(idx, vec_dense(r, dim)), 1
        for k, i in enumerate(reversed(idx)):
            count += i * dim**k
    return CheckReport(name, witness is None, witness, count, informational=informational, notes=tuple(notes))


def tensors_equal_report(name, a, b, informational=False) -> CheckReport:
    """Exact tensor equality with the lex-smallest differing key as witness."""
    if a.dim != b.dim:
        raise DimensionMismatchError("tensor dims differ")
    keys = sorted(set(a.support()) | set(b.support()))
    count = 0
    for key in keys:
        count += 1
        diff = vec_sub(a.value(*key), b.value(*key))
        if diff:
            return CheckReport(
                name,
                False,
                Witness(key, vec_dense(diff, a.dim)),
                count,
                informational=informational,
            )
    return CheckReport(name, True, None, count, informational=informational)


# ---------------------------------------------------------------------------
# base structure checks

VARIANT_JACOBSON = "jacobson"
VARIANT_ALTERNATE = "alternate"
JTS_VARIANTS = (VARIANT_JACOBSON, VARIANT_ALTERNATE)

ANTISYMMETRY = Formula("antisymmetry", "X Y", "[X,Y] + [Y,X] = 0")
JACOBI = Formula("jacobi", "X Y Z", "[[X,Y],Z] + [[Y,Z],X] + [[Z,X],Y] = 0")
JTS_IDENTITIES = {
    VARIANT_JACOBSON: Formula(
        "jts-jacobson", "A B X Y Z", "<A,B,<X,Y,Z>> = <<A,B,X>,Y,Z> - <X,<B,A,Y>,Z> + <X,Y,<A,B,Z>>"
    ),
    VARIANT_ALTERNATE: Formula(
        "jts-alternate", "X A Z B Y", "<X,<A,Z,B>,Y> = <<X,A,Y>,B,Z> + <<Y,A,Z>,B,X> - <<X,B,Y>,A,Z>"
    ),
}
# Operator equality, witnessed column-wise on basis vectors.
COMMUTE = Formula("operators-commute", "X", "R1R2X = R2R1X")


@states(ANTISYMMETRY)
def check_antisymmetry(b: BilinearStructure) -> CheckReport:
    return scan(ANTISYMMETRY, {"bracket": b})


@states(JACOBI)
def check_jacobi(b: BilinearStructure) -> CheckReport:
    return scan(JACOBI, {"bracket": b})


@states(*JTS_IDENTITIES.values())
def check_jts_identity(t: TrilinearStructure, variant: str) -> CheckReport:
    """Five-variable triple-system identity, scanned over all dim^5 tuples."""
    if variant not in JTS_VARIANTS:
        raise ValueError(f"unknown triple-system identity variant: {variant!r}")
    return scan(JTS_IDENTITIES[variant], {"triple": t})


def check_lie(b: BilinearStructure) -> CheckReport:
    """Antisymmetry plus Jacobi, the precondition checked by require_lie."""
    return aggregate_report("lie", (check_antisymmetry(b), check_jacobi(b)))


def _proven(cls, structure, report):
    """structure's entries and what is derived from them, shared, in an instance
    of cls, whose one slot holds report."""
    proven = object.__new__(cls)
    for name in _SparseTensor.__slots__:
        object.__setattr__(proven, name, getattr(structure, name))
    object.__setattr__(proven, cls.__slots__[0], report)
    return proven


class LieBracket(BilinearStructure):
    """A bracket with its passing check_lie report as lie.  Only prove_lie makes
    one; it shares the entries of the bracket it proves and compares equal to it."""

    __slots__ = ("lie",)

    def __init__(self, *args, **kwargs):
        raise TypeError("a LieBracket is made only by prove_lie")


def prove_lie(bracket: BilinearStructure) -> tuple:
    """(check_lie(bracket), the bracket as a LieBracket or None); a LieBracket is its own proof."""
    if isinstance(bracket, LieBracket):
        return bracket.lie, bracket
    report = check_lie(bracket)
    return report, _proven(LieBracket, bracket, report) if report.passed else None


class JordanTriple(TrilinearStructure):
    """A triple with its passing check_jts_identity report for one variant as jts.
    Only prove_jts makes one; it shares its triple's entries and compares equal to it."""

    __slots__ = ("jts",)

    def __init__(self, *args, **kwargs):
        raise TypeError("a JordanTriple is made only by prove_jts")


def prove_jts(triple: TrilinearStructure, variant: str) -> tuple:
    """(check_jts_identity(triple, variant), the triple as a JordanTriple or None);
    a JordanTriple proven for the variant is its own proof, and a jacobson
    proof is not an alternate one."""
    if isinstance(triple, JordanTriple) and triple.jts.name == f"jts-{variant}":
        return triple.jts, triple
    report = check_jts_identity(triple, variant)
    return report, _proven(JordanTriple, triple, report) if report.passed else None


def require_lie(bracket: BilinearStructure) -> LieBracket:
    """Precondition of every structure built on a Lie bracket: the bracket as
    prove_lie returns it, or PreconditionError if it is not Lie."""
    report, proven = prove_lie(bracket)
    if proven is None:
        bad = next(s for s in report.subchecks if not s.passed)
        raise PreconditionError(f"bracket is not a Lie bracket: {bad.name} fails at {bad.witness.indices}")
    return proven
