"""Algebra file format: JSON text with sparse structure constants.

Layout:
  dimension    required positive int
  basis_names  optional list of dimension strings
  bracket      optional sparse list of [i, j, k, "p/q"]  (coefficient of e_k in [e_i,e_j])
  triple       optional sparse list of [i, j, k, l, "p/q"]
  operators    optional map name -> dense row-major matrix of scalar strings

Indices are 0-based; scalar strings must be in canonical reduced form ("p" or
"p/q" with q > 1).  Rendering is canonical (sorted keys and entries), so
parse(render(f)) round-trips byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json

from .core import BilinearStructure, Operator, Record, TrilinearStructure, WorkbenchError
from .scalars import ScalarError, parse_scalar, render_scalar


class ParseError(WorkbenchError):
    pass


_TOP_KEYS = {"dimension", "basis_names", "bracket", "triple", "operators"}


class AlgebraFile(Record):
    __slots__ = ("dimension", "basis_names", "bracket", "triple", "operators")

    def __init__(
        self,
        dimension: int,
        basis_names: tuple | None = None,
        bracket: BilinearStructure | None = None,
        triple: TrilinearStructure | None = None,
        operators: dict | None = None,
    ):
        self._assign(dimension, basis_names, bracket, triple, {} if operators is None else operators)

    def require_bracket(self) -> BilinearStructure:
        if self.bracket is None:
            raise ParseError("input has no bracket section")
        return self.bracket

    def require_triple(self) -> TrilinearStructure:
        if self.triple is None:
            raise ParseError("input has no triple section")
        return self.triple

    def require_operator(self, name: str) -> Operator:
        if name not in self.operators:
            raise ParseError(f"input has no operator named {name!r}")
        return self.operators[name]


def _parse_index(value, dim, where):
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value < dim:
        raise ParseError(f"{where}: index {value!r} out of range for dimension {dim}")
    return value


def _parse_scalar(value, where):
    if not isinstance(value, str):
        raise ParseError(f"{where}: scalar must be a string, got {value!r}")
    try:
        return parse_scalar(value)
    except ScalarError as exc:
        raise ParseError(f"{where}: {exc}") from None


def _parse_tensor(cls, rows, dim):
    """The bracket or triple section: sparse rows [*index tuple, component, scalar]."""
    if not isinstance(rows, list):
        raise ParseError(f"{cls.kind} must be a list")
    shape = f"[{', '.join('ijkl'[: cls.arity + 1])}, scalar]"
    entries: dict = {}
    for pos, row in enumerate(rows):
        where = f"{cls.kind}[{pos}]"
        if not isinstance(row, list) or len(row) != cls.arity + 2:
            raise ParseError(f"{where}: expected {shape}")
        index = tuple([_parse_index(v, dim, where) for v in row[:-1]])
        vec = entries.setdefault(index[:-1], {})
        if index[-1] in vec:
            raise ParseError(f"{where}: duplicate entry {index}")
        vec[index[-1]] = _parse_scalar(row[-1], where)
    return cls(dim, entries)


def parse_algebra_file(text: str) -> AlgebraFile:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ParseError(f"unknown top-level fields: {sorted(unknown)}")
    dim = data.get("dimension")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError("dimension must be a positive integer")

    names = None
    if "basis_names" in data:
        raw = data["basis_names"]
        if not isinstance(raw, list) or len(raw) != dim or not all(isinstance(s, str) for s in raw):
            raise ParseError(f"basis_names must be a list of {dim} strings")
        names = tuple(raw)

    bracket, triple = (
        _parse_tensor(cls, data[cls.kind], dim) if cls.kind in data else None
        for cls in (BilinearStructure, TrilinearStructure)
    )

    operators = {}
    if "operators" in data:
        raw = data["operators"]
        if not isinstance(raw, dict):
            raise ParseError("operators must be an object")
        for name, matrix in raw.items():
            where = f"operators[{name!r}]"
            if (
                not isinstance(matrix, list)
                or len(matrix) != dim
                or any(not isinstance(row, list) or len(row) != dim for row in matrix)
            ):
                raise ParseError(f"{where}: expected a {dim}x{dim} matrix")
            operators[name] = Operator(
                tuple(
                    tuple(_parse_scalar(x, f"{where}[{r}][{c}]") for c, x in enumerate(row))
                    for r, row in enumerate(matrix)
                )
            )

    return AlgebraFile(dim, names, bracket, triple, operators)


def algebra_file_to_dict(af: AlgebraFile) -> dict:
    """Canonical plain-dict form (sorted sparse entries, canonical scalars)."""
    out: dict = {"dimension": af.dimension}
    if af.basis_names is not None:
        out["basis_names"] = list(af.basis_names)
    for tensor in (af.bracket, af.triple):
        if tensor is not None:
            rows = out[tensor.kind] = [list(row) for row in tensor.sorted_rows()]
            for row in rows:
                row[-1] = render_scalar(row[-1])
    if af.operators:
        out["operators"] = {
            name: [[render_scalar(x) for x in row] for row in op.rows]
            for name, op in sorted(af.operators.items())
        }
    return out


def render_algebra_file(af: AlgebraFile) -> str:
    return json.dumps(algebra_file_to_dict(af), sort_keys=True, indent=2) + "\n"


def algebra_file_digest(af: AlgebraFile) -> str:
    return hashlib.sha256(render_algebra_file(af).encode()).hexdigest()


def entry_to_algebra_file(entry) -> AlgebraFile:
    """Export a catalog entry (structures plus named operators)."""
    return AlgebraFile(
        dimension=entry.dim,
        basis_names=None,
        bracket=entry.bracket,
        triple=entry.triple,
        operators=dict(entry.operators),
    )
