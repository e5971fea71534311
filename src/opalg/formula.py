"""Identities stated once, as formulas, and the one evaluator that checks them.

A formula is written as the source text states it, e.g. the mYB identity
``R[RX,Y] + R[X,RY] = [RX,RY] + R^2[X,Y]``; its residual is left minus right
side.  Variables are the basis letters declared with the formula, in scan
order.  Any other name (a letter plus digits, ``rho`` or ``xi``) is an
operator, and a run of them with optional powers (``R^2``, ``R1R2``, ``Rxi``)
is an operator word applied to what follows.  ``[a,b]`` is the bracket and
``<a,b,c>`` the triple; ``[X,Y]_R`` reads the structure passed as
``bracket_R``, ``<X,Y,Z>_R`` the one passed as ``triple_R``.  Terms combine
with ``+``, ``-``, parentheses and rational coefficients (``1/4(...)``).

Each formula compiles once, on first use, into a residual function making
the kernel calls a hand-written one would: ``value`` on basis indices,
``column`` for an operator on a basis vector, the one- and two-slot
``apply_*`` contractions and the full ``apply``.  Operator words are
multiplied out once per scan, and terms under one operator word are summed
before it is applied.
"""

from __future__ import annotations

import functools
import itertools
import re

from . import core  # core states its own identities here, so its names are read at call time
from .scalars import scalar

_TOKEN = re.compile(r"\d+|rho|xi|[A-Za-z]\d*|\S")
_SLOTS = {"br": ("first", "second"), "tr": ("first", "middle", "last")}


def _contraction(kind: str, args) -> str:
    """value on basis indices only, apply on vectors only, else apply_<vector slots>."""
    slots = [s for s, a in zip(_SLOTS[kind], args) if a[0] != "var"]
    return "value" if not slots else "apply" if len(slots) == len(args) else "apply_" + "_".join(slots)


def _group(pairs) -> tuple:
    """Sum the terms under one operator word first: cW(a) + cW(b) -> cW(a + b)."""
    groups = {}
    for c, t in pairs:
        if t[0] == "op" and t[2][0] != "var":
            groups.setdefault(t[1], []).append((c, t[2]))
    out = []
    for c, t in pairs:
        group = groups[t[1]] if t[0] == "op" and t[2][0] != "var" else [(c, t)]
        if len(group) == 1:
            out.append((c, t))
        elif group:  # the first term under this word carries the whole group
            c = group[0][0]
            if all(gc == c for gc, _ in group):
                inner = [(1, g) for _, g in group]
            else:
                c, inner = 1, group
            out.append((c, ("op", t[1], ("sum", _group(inner)))))
            group.clear()
    return tuple(out)


class _Parser:
    """Recursive descent; terms are nested tuples: ("var", k), ("op", word, t),
    ("br", key, a, b), ("tr", key, a, b, c) and ("sum", ((coeff, t), ...))."""

    def __init__(self, text: str, variables: tuple):
        self.text, self.variables = text, variables
        self.tokens, self.pos = _TOKEN.findall(text), 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None) -> str:
        tok = self.peek()
        if tok is None or expected not in (None, tok):
            raise ValueError(f"expected {expected or 'more'} at token {self.pos} of {self.text!r}")
        self.pos += 1
        return tok

    def residual(self) -> tuple:
        pairs = self.sum()
        if self.peek() == "=":
            self.take()
            if self.tokens[self.pos:] == ["0"]:
                self.take()
            else:
                pairs += [(-c, t) for c, t in self.sum()]
        if self.peek() is not None:
            raise ValueError(f"unexpected {self.peek()!r} at token {self.pos} of {self.text!r}")
        return self.combine(pairs)

    @staticmethod
    def combine(pairs) -> tuple:
        pairs = _group(pairs)
        return pairs[0][1] if len(pairs) == 1 and pairs[0][0] == 1 else ("sum", pairs)

    def sum(self) -> list:
        pairs = []
        while True:
            sign = -1 if self.peek() == "-" else 1
            if self.peek() in ("+", "-"):
                self.take()
            pairs.append((sign * self.coefficient(), self.factor()))
            if self.peek() not in ("+", "-"):
                return pairs

    def coefficient(self):
        if not (self.peek() or "").isdigit():
            return 1
        num = int(self.take())
        if self.peek() != "/":
            return num
        self.take()
        return scalar(num, int(self.take()))

    def factor(self) -> tuple:
        word = []
        while (self.peek() or "0")[0].isalpha() and self.peek() not in self.variables:
            name = self.take()
            power = 1
            if self.peek() == "^":
                self.take()
                power = int(self.take())
            word += [name] * power
        inner = self.primary()
        return ("op", tuple(word), inner) if word else inner

    def primary(self) -> tuple:
        tok = self.take()
        if tok in self.variables:
            return ("var", self.variables.index(tok))
        close = {"(": ")", "[": "]", "<": ">"}.get(tok)
        if close is None:
            raise ValueError(f"unexpected {tok!r} at token {self.pos} of {self.text!r}")
        args = [self.combine(self.sum())]
        while close != ")" and len(args) < (2 if tok == "[" else 3):
            self.take(",")
            args.append(self.combine(self.sum()))
        self.take(close)
        if tok == "(":
            return args[0]
        key = "bracket" if tok == "[" else "triple"
        if self.peek() == "_":
            self.take()
            key += "_" + self.take()
        return ("br" if tok == "[" else "tr", key, *args)


class _Codegen:
    """Lines of one residual function, and the expression it returns."""

    def __init__(self, top: tuple):
        self.lines, self.words, self.constants, self.structures = [], {}, {}, set()
        self.result = self.emit(top)[0]

    def coefficient(self, c) -> str:
        return repr(c) if isinstance(c, int) else self.constants.setdefault(c, f"_c{len(self.constants)}")

    def emit(self, t) -> tuple:
        """Python expression for term t, and whether the caller may mutate its value."""
        if t[0] == "var":  # a basis vector where a vector is needed
            return f"{{_x{t[1]}: 1}}", True
        if t[0] == "sum":
            return self.sum(t[1]), True
        if t[0] == "op":
            self.structures.update(t[1])
            word = t[1][0] if len(t[1]) == 1 else self.words.setdefault(t[1], f"_w{len(self.words)}")
            if t[2][0] == "var":
                return f"{word}.column(_x{t[2][1]})", False
            return f"{word}.apply({self.emit(t[2])[0]})", True
        self.structures.add(t[1])
        args = ", ".join(f"_x{a[1]}" if a[0] == "var" else self.emit(a)[0] for a in t[2:])
        method = _contraction(t[0], t[2:])
        return f"{t[1]}.{method}({args})", method != "value"

    def sum(self, pairs) -> str:
        terms = [(c, *self.emit(t)) for c, t in pairs]
        acc = f"_s{len(self.lines)}"
        base = next((i for i, (c, _, owned) in enumerate(terms) if c == 1 and owned), None)
        if base is not None:
            start = terms[base][1]
        else:
            base = next((i for i, (c, _, _) in enumerate(terms) if c == 1), 0)
            c, code, _ = terms[base]
            start = f"dict({code})" if c == 1 else f"_scale({code}, {self.coefficient(c)})"
        self.lines.append(f"{acc} = {start}")
        for i, (c, code, _) in enumerate(terms):
            if i != base:
                self.lines.append(f"_iadd({acc}, {code}{'' if c == 1 else ', ' + self.coefficient(c)})")
        return acc


class Formula:
    """One identity, or one derived structure, compiled on first use.

    name is the report name of a scan; variables are the basis letters in
    scan order, e.g. "X Y Z"; text is the formula itself.
    """

    def __init__(self, name: str, variables: str, text: str):
        self.name, self.text = name, text
        self.variables = tuple(variables.split())
        self.arity = len(self.variables)

    @functools.cached_property
    def _compiled(self) -> tuple:
        """(structure names, make function); make(_iadd, _scale, **structures) -> residual."""
        gen = _Codegen(_Parser(self.text, self.variables).residual())
        structures = tuple(sorted(gen.structures))
        ident = re.sub(r"\W", "_", self.name)  # so that a profile names the formula
        source = "\n".join(
            [
                f"def make_{ident}(_iadd, _scale, {', '.join(structures)}):",
                *(f"    {name} = {' @ '.join(word)}" for word, name in gen.words.items()),
                f"    def residual_{ident}({', '.join(f'_x{k}' for k in range(self.arity))}):",
                *(f"        {line}" for line in gen.lines),
                f"        return {gen.result}",
                f"    return residual_{ident}",
            ]
        )
        namespace = {name: c for c, name in gen.constants.items()}
        exec(source, namespace)
        return structures, namespace[f"make_{ident}"]

    def bind(self, structures: dict) -> tuple:
        """(residual function, dimension) on the structures the formula names."""
        names, make = self._compiled
        used = {key: structures[key] for key in names}
        dims = {s.dim for s in used.values()}
        if len(dims) != 1:
            raise core.DimensionMismatchError(f"{self.name}: structure dimensions differ")
        return make(core.vec_iadd, core.vec_scale, **used), dims.pop()


def scan(formula: Formula, structures: dict, name=None, notes=(), informational=False):
    """Check an identity on every basis tuple in lex order; the first failure is the witness."""
    residual, dim = formula.bind(structures)
    return core.scan_tuples(name or formula.name, dim, formula.arity, residual, notes, informational)


def tabulate(formula: Formula, structures: dict):
    """Structure tensor whose (i, j[, k]) entry is the formula at those basis vectors."""
    residual, dim = formula.bind(structures)
    entries = {}
    for idx in itertools.product(range(dim), repeat=formula.arity):
        vec = residual(*idx)
        if vec:
            entries[idx] = vec
    return (core.BilinearStructure if formula.arity == 2 else core.TrilinearStructure)(dim, entries)


def states(*formulas):
    """Decorator: append the formulas a function checks or builds to its docstring."""

    def document(fn):
        lines = [f"    {f.name}, over ({', '.join(f.variables)}): {f.text}" for f in formulas]
        fn.__doc__ = (fn.__doc__ or "").rstrip() + "\n\n    Formulas:\n" + "\n".join(lines) + "\n"
        return fn

    return document
