"""Identities stated once, as formulas, and the two evaluators that check them.

A formula is written as the source text states it, e.g. the mYB identity
``R[RX,Y] + R[X,RY] = [RX,RY] + R^2[X,Y]``; its residual is left minus right
side.  Variables are the basis letters declared with the formula, in scan
order.  Any other name (a letter plus digits, ``rho`` or ``xi``) is an
operator, and a run of them with optional powers (``R^2``, ``R1R2``, ``Rxi``)
is an operator word applied to what follows.  ``[a,b]`` is the bracket and
``<a,b,c>`` the triple; ``[X,Y]_R`` reads the structure passed as
``bracket_R``, ``<X,Y,Z>_R`` the one passed as ``triple_R``.  Terms combine
with ``+``, ``-``, parentheses and rational coefficients (``1/4(...)``).

Each formula is parsed at most once per process, on first use, and both
evaluators read the parsed residual; a nest read from the cache below needs
no parse.  ``bind`` picks the evaluator from the formula's arity: joins from
4 variables up, the loop nest below.

A formula of arity at most 3 compiles once per machine into a loop nest over
its variables in scan order, ``for _x0 in range(dim): ... for _x{a-1} in
range(dim):``.  It is a generator yielding ``(indices, residual)`` for every
basis tuple it visits with a nonzero residual, in lexicographic order, and it
makes the kernel calls a hand-written scan would: ``value`` on basis indices,
``column`` for an operator on a basis vector, the one- and two-slot
``apply_*`` contractions.  Five rules shape it:

- hoisting: each subterm is computed in the loop of its deepest variable,
  once per binding of the variables it reads.  Operator words are multiplied
  out once per scan, and terms under one word are summed before it is applied.
- empty skip: a contraction or operator application with an empty vector
  argument is ``{}`` without a call, since every contraction is multilinear.
- partial application: a triple of three vectors, one strictly deeper than
  the other two, stores the sparse columns of the shallow two (e.g.
  ``{k: apply_first_middle(u, v, k)}``) in the shallower loop and combines
  them with the deep vector in the deeper one.  No scan contracts the full
  triple tensor per tuple.
- in-place updates: a sum updates in place only a fresh value computed in
  its own loop and used nowhere else, since hoisted and shared values are
  read again.
- orbits: the nest visits one tuple per orbit of a symmetry proven twice.
  Once per formula, with its nest, a normal form of the residual proves
  which transpositions of two variables map it to plus or minus itself
  (``_normal``, ``_orbit``).  The normal form expands the residual by
  linearity, merges operator words, orders the two arguments of each bracket
  with a sign flip (equal arguments vanish) and the outer two of each triple
  with none.  So the proof assumes that every bracket the formula reads is
  antisymmetric and every triple symmetric in its outer two slots; it is
  exact, dimension-free and conservative.  At each bind, ``mirrored`` checks
  that property of every bracket and triple read, in O(entries), once per
  structure.  Where both proofs hold, a loop the group bounds starts at an
  earlier variable's value, after it where the swap flips the sign
  (``_bounds``): i < j for the Lie identities, i < j < k for the Jacobi
  family, x <= z for the triple identities.  Where the structures lack the
  property, the same nest runs over full ranges.  The lex-smallest failing
  tuple is the lex-smallest of its orbit, so the first yield is the same
  either way; ``tabulate`` fills each orbit from its yield with the proven
  sign.  Joins visit every tuple.

The compiled nest is cached on disk beside formula.py's own bytecode, in the
directory ``importlib.util.cache_from_source`` names (so ``sys.pycache_prefix``
applies): one file ``formula.<name>.<cache tag>.nest`` per formula name, its
non-word characters as ``_``.  The file holds ``marshal.dumps((key, structure
names, code, orbit))``, the key being formula.py's ``st_mtime_ns`` and
``st_size``, the formula's name, variables and text: CPython's rule for
formula.py's own ``.pyc``, and the generated text and the orbit depend on
nothing outside this file.  An equal key is a hit, which runs the code with no
parse, normal form, code generation or ``compile()``.  Anything else is a miss:
no file, an unreadable or malformed one, or another key.  A miss compiles as
above and then, unless ``sys.dont_write_bytecode``, writes the entry through a
temporary file and ``os.replace``; a write that fails is ignored, and where
there is no such directory nothing is cached.

A formula of arity 4 or more is evaluated as joins over the structures'
supports, one value x0 of the first variable at a time.  The value of a
subterm is a map {the values of its variables: vector}:

- joins: a contraction indexes each computed argument by output component
  and enumerates only the structure entries whose every slot is a component
  of its argument.  It is driven from the argument with the fewest components,
  through the structure's entries indexed by that slot (``entries_by``, an
  index the structure keeps); a basis variable other than the first matches
  every entry.
- slices: a subterm that does not read the first variable is joined once per
  bind, the others once per slice.  Every term of the residual adds its
  products into one accumulator keyed by the basis tuple; the slice's nonzero
  entries are yielded in lex order and the accumulator is dropped.  A term
  missing some variables is widened over them, and a variable repeated in a
  term keeps the products on which its occurrences agree.

Why arity decides: a term reading four or more variables nests at least two
contractions, since one takes at most three arguments, so its nonzero
products are far fewer than the dim^k tuples a nest visits (jacobson on
gl(4): 61.5 k products in all four terms, 1.05 M tuples).  At arity 3 and
below a term can be one contraction of dense operator images, which the
nest's partial application already handles; there joins ran at 0.3-0.9x
the nest's speed (mYB and the derived bracket on so(5), so(6) and gl(3), the
triple mYB and the full derived triple on example3-gl3).

Both evaluators run on Python ints (fraction-free, as in Bareiss elimination).
``bind`` replaces each structure by its integer form: d times the structure,
d the lcm of its entries' denominators (the structure itself when d = 1).
Every identity is multilinear, so each subterm holds an integer multiple
s * (the subterm), its scale s computed before the first tuple:

- a basis variable has s = 1;
- an operator word W applied to t has s = d_W * s(t), d_W the product of
  its operators' d;
- a contraction has s = d_key * the product of its vector arguments' scales;
- a sum of (p_i/q_i) t_i has s = lcm(q_i s(t_i)) and adds up its terms with
  the integer multipliers m_i = s p_i / (q_i s(t_i)), so ``1/4(...)`` costs
  no rational arithmetic.

A nonzero residual is divided back exactly, {k: scalar(v, s)}, before it is
yielded.  On integer structures every scale is 1 unless the formula has a
fractional coefficient, and in the nest a multiplier of 1 neither scales nor
copies, so integer input makes the kernel calls of a rational-arithmetic
nest, one integer comparison per sum aside.

``scan`` takes the first yield as the witness.  Its ``tuples_evaluated`` is
the witness's lexicographic rank plus one, or dim^arity on a pass: the tuples
a tuple-by-tuple scan evaluates, not the tuples an orbit-reduced nest visits.
``tabulate`` collects every yield and its orbit.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import marshal
import math
import operator
import os
import re
import sys
import types

from . import core  # core states its own identities here, so its names are read at call time
from .scalars import scalar

_TOKEN = re.compile(r"\d+|rho|xi|[A-Za-z]\d*|\S")
_SLOTS = {"br": ("first", "second"), "tr": ("first", "middle", "last")}


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
    """The statements of one loop nest, by the loop depth that binds their variables.

    Depth d > 0 is the body of the loop over _x{d-1}; depth 0 precedes the
    loops.  Every subterm becomes one local, assigned at the depth of its
    deepest variable, and identical subterms share it.  A value is fresh if it
    is a new dict on every evaluation; a sum may update in place only a fresh
    value computed at its own depth and used nowhere else.  The nest runs on
    integer structures: each subterm's local holds s * (the subterm), and the
    integer scale s is computed at depth 0 from the structures' _d_<name>.
    """

    def __init__(self, top: tuple, arity: int):
        self.lines = [[] for _ in range(arity + 1)]
        self.words = {}
        self.uses, self.locals, self.scales = {}, {}, {}
        self.count(top)
        self.result = self.emit(top)[0]
        self.scale = self.scales[top]

    def count(self, t) -> None:
        self.uses[t] = self.uses.get(t, 0) + 1
        if self.uses[t] == 1 and t[0] != "var":
            for s in [s for _, s in t[1]] if t[0] == "sum" else t[2:]:
                self.count(s)

    def assign(self, key, depth: int, code: str, fresh: bool) -> tuple:
        name = f"_t{len(self.locals)}"
        self.lines[depth].append(f"{name} = {code}")
        self.locals[key] = (name, depth, fresh)
        return self.locals[key]

    def scaled(self, t, factors) -> None:
        """The scale of t as the product of factors (names or "1")."""
        factors = [f for f in factors if f != "1"]
        if len(factors) > 1:
            self.lines[0].append(f"_s{len(self.scales)} = {' * '.join(factors)}")
            factors = [f"_s{len(self.scales)}"]
        self.scales[t] = factors[0] if factors else "1"

    def emit(self, t) -> tuple:
        """(local holding term t, its depth, whether it is fresh)."""
        if t not in self.locals:
            if t[0] == "var":  # a basis vector where a vector is needed
                self.assign(t, t[1] + 1, f"{{_x{t[1]}: 1}}", True)
                self.scales[t] = "1"
            elif t[0] == "sum":
                self.sum(t)
            elif t[0] == "op":
                self.operator(t)
            else:
                self.contraction(t)
        return self.locals[t]

    def operator(self, t) -> None:
        word = t[1][0] if len(t[1]) == 1 else self.words.setdefault(t[1], f"_w{len(self.words)}")
        if t[2][0] == "var":
            self.assign(t, t[2][1] + 1, f"{word}.column(_x{t[2][1]})", False)
            self.scaled(t, [f"_d_{name}" for name in t[1]])
        else:
            v, depth, _ = self.emit(t[2])
            self.assign(t, depth, f"{word}.apply({v}) if {v} else {{}}", True)
            self.scaled(t, [f"_d_{name}" for name in t[1]] + [self.scales[t[2]]])

    def contraction(self, t) -> None:
        """value on basis indices only; on vectors apply, apply_<vector slots> or
        a partial application, and {} if a vector argument is empty."""
        kind, key, args = t[0], t[1], t[2:]
        slots = _SLOTS[kind]
        vectors = {s: self.emit(a) for s, a in zip(slots, args) if a[0] != "var"}
        depths = [vectors[s][1] if s in vectors else a[1] + 1 for s, a in zip(slots, args)]
        code = [vectors[s][0] if s in vectors else f"_x{a[1]}" for s, a in zip(slots, args)]
        depth = max(depths)
        if not vectors:
            self.assign(t, depth, f"{key}.value({', '.join(code)})", False)
        elif len(vectors) == 3 and sorted(depths)[1] < depth:
            self.partial(t, key, code, depths)
        else:
            method = "apply" if len(vectors) == len(args) else "apply_" + "_".join(vectors)
            nonempty = " and ".join(v for v, _, _ in vectors.values())
            self.assign(t, depth, f"{key}.{method}({', '.join(code)}) if {nonempty} else {{}}", True)
        self.scaled(t, [f"_d_{key}"] + [self.scales[a] for a in args if a[0] != "var"])

    def partial(self, t, key: str, code: list, depths: list) -> None:
        """A triple of vectors, w the strictly deepest: the sparse columns
        {k: <u, v, e_k>} where u and v are computed, combined with w where w is."""
        deep = depths.index(max(depths))
        w, code[deep] = code[deep], "_k"
        slots = "_".join(s for i, s in enumerate(_SLOTS["tr"]) if i != deep)
        shallow = [(c, d) for i, (c, d) in enumerate(zip(code, depths)) if i != deep]
        columns = f"{{_k: _v for _k in _range if (_v := {key}.apply_{slots}({', '.join(code)}))}}"
        columns += f" if {' and '.join(c for c, _ in shallow)} else {{}}"
        cols = self.assign(("columns", t), max(d for _, d in shallow), columns, False)[0]
        self.assign(t, depths[deep], f"_gather({cols}, {w}) if {cols} and {w} else {{}}", True)

    def sum(self, t) -> None:
        """sum c_i t_i for c_i = p_i/q_i has the scale s = lcm(q_i s_i) and is
        computed as sum m_i (s_i t_i) with the integer multipliers m_i = s p_i / (q_i s_i)."""
        terms = [(c, s, *self.emit(s)) for c, s in t[1]]
        depth = max(d for _, _, _, d, _ in terms)
        n = len(self.scales)
        self.scales[t] = f"_s{n}"
        parts = [(c.numerator, _times(c.denominator, self.scales[s])) for c, s, *_ in terms]
        self.lines[0].append(f"_s{n} = _lcm({', '.join(qs for _, qs in parts)})")
        multipliers = [f"_m{n}_{i}" for i in range(len(terms))]
        self.lines[0] += [f"{m} = _s{n} * {p} // {qs}" for m, (p, qs) in zip(multipliers, parts)]
        own = [fresh and d == depth and self.uses[s] == 1 for _, s, _, d, fresh in terms]
        base = min(range(len(terms)), key=lambda i: (not own[i], terms[i][0] != 1))
        v, m = terms[base][2], multipliers[base]
        start = f"{v if own[base] else f'dict({v})'} if {m} == 1 else _scale({v}, {m})"
        acc = self.assign(t, depth, start, True)[0]
        for i, (c, s, v, _, _) in enumerate(terms):
            if i != base:
                add = f"_iadd({acc}, {v}, {multipliers[i]})"
                self.lines[depth].append(add if s[0] == "var" else f"if {v}: {add}")


def _times(q: int, scale: str) -> str:
    return scale if q == 1 else str(q) if scale == "1" else f"({q} * {scale})"


def _cache_file(formula, ident: str) -> tuple:
    """(the file of formula's cached nest, the key its entry must hold), both
    None where this interpreter caches no bytecode."""
    try:
        stamp = os.stat(__file__)
        directory = os.path.dirname(importlib.util.cache_from_source(__file__))
    except (OSError, NotImplementedError):
        return None, None
    path = os.path.join(directory, f"formula.{ident}.{sys.implementation.cache_tag}.nest")
    return path, (stamp.st_mtime_ns, stamp.st_size, formula.name, formula.variables, formula.text)


def _load(path, key):
    """(structure names, code, orbit) from the entry at path if it holds key, else None."""
    if path is None:
        return None
    try:
        with open(path, "rb") as fh:
            entry = marshal.loads(fh.read())
    except (OSError, EOFError, ValueError, TypeError):
        return None
    if type(entry) is tuple and len(entry) == 4 and entry[0] == key:
        names, code, orbit = entry[1:]
        if type(names) is tuple and type(code) is types.CodeType and type(orbit) is tuple:
            return names, code, orbit
    return None


def _store(path: str, entry: tuple) -> None:
    """Write entry to path through a temporary file, so no reader sees half of
    it; a write that fails leaves no file."""
    temporary = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temporary, "wb") as fh:
            fh.write(marshal.dumps(entry))
        os.replace(temporary, path)
    except OSError:
        try:
            os.unlink(temporary)
        except OSError:
            pass


def _normal(t, rename: tuple) -> dict:
    """{monomial: coefficient}: the normal form of t with variable k read as
    rename[k], assuming every bracket antisymmetric and every triple symmetric
    in its outer two arguments.  t is expanded by linearity and nested operator
    words are merged; the two arguments of a bracket are put in monomial order,
    flipping the sign, and a bracket of two equal arguments vanishes; the outer
    two arguments of a triple are put in order with no sign."""
    kind = t[0]
    if kind == "var":
        return {("var", rename[t[1]]): 1}
    out = {}
    if kind == "sum":
        terms = [(m, c * x) for c, s in t[1] for m, x in _normal(s, rename).items()]
    elif kind == "op":
        inner = _normal(t[2], rename).items()
        terms = [(("op", t[1] + m[1], m[2]) if m[0] == "op" else ("op", t[1], m), x) for m, x in inner]
    else:
        terms = []
        for args in itertools.product(*(_normal(a, rename).items() for a in t[2:])):
            monomials, x = [m for m, _ in args], math.prod(x for _, x in args)
            if kind == "br" and monomials[0] >= monomials[1]:
                if monomials[0] == monomials[1]:
                    continue
                monomials.reverse()
                x = -x
            elif kind == "tr" and monomials[0] > monomials[2]:
                monomials.reverse()
            terms.append(((kind, t[1], *monomials), x))
    for m, x in terms:
        out[m] = out.get(m, 0) + x
    return {m: x for m, x in out.items() if x}


def _orbit(top: tuple, arity: int) -> tuple:
    """((permutation, sign), ...), the identity first: the group generated by
    the transpositions of variables that change the normal form of top by a
    sign, with that sign.  The residual at (x[p[0]], x[p[1]], ...) is sign times
    the residual at x for each (p, sign), on structures where the normal form's
    assumption holds.  A transposition under which the normal form is both
    itself and its negative, i.e. is 0, counts with the sign 1."""
    identity = tuple(range(arity))
    normal = _normal(top, identity)
    signs = {}
    for a, b in itertools.combinations(identity, 2):
        swap = list(identity)
        swap[a], swap[b] = b, a
        moved = _normal(top, tuple(swap))
        if moved == normal:
            signs[tuple(swap)] = 1
        elif moved == {m: -x for m, x in normal.items()}:
            signs[tuple(swap)] = -1
    group, frontier = {identity: 1}, [identity]
    while frontier:
        p = frontier.pop()
        for q, sign in signs.items():
            r = tuple(p[k] for k in q)
            if r not in group:
                group[r] = group[p] * sign
                frontier.append(r)
    return tuple(group.items())


def _bounds(orbit: tuple) -> dict:
    """{variable b: (a, strict)}: the loop over b starts at the value of a, the
    largest earlier variable that a transposition of the orbit swaps with b,
    and after it where that swap flips the sign (the residual is 0 there).
    Over those ranges the nest visits exactly the lex-smallest tuple of each
    orbit, for the groups generated by transpositions of at most 3 variables."""
    bounds = {}
    for p, sign in orbit:
        moved = [k for k, pk in enumerate(p) if pk != k]
        if len(moved) == 2 and moved[0] > bounds.get(moved[1], (-1,))[0]:
            bounds[moved[1]] = (moved[0], sign < 0)
    return bounds


def _structure_names(t) -> set:
    """The names of the structures and operators a term reads."""
    if t[0] == "var":
        return set()
    if t[0] == "sum":
        return set().union(*(_structure_names(s) for _, s in t[1]))
    if t[0] == "op":
        return set(t[1]) | _structure_names(t[2])
    return {t[1]}.union(*(_structure_names(a) for a in t[2:]))


def _assembler(order: tuple, wide: tuple):
    """The function from the values of the variables order (argument keys laid
    end to end) to the key over wide, or None where a repeated variable takes
    two values."""
    first, repeats = {}, []
    for p, v in enumerate(order):
        if v in first:
            repeats.append((first[v], p))
        else:
            first[v] = p
    positions = tuple(first[v] for v in wide)
    pick = operator.itemgetter(*positions) if len(positions) > 1 else lambda values: (values[positions[0]],)
    if not repeats:
        return pick
    return lambda values: pick(values) if all(values[p] == values[q] for p, q in repeats) else None


def _product(parts: list) -> list:
    """The (key, coefficient) pairs of the product of lists of them: keys laid
    end to end, coefficients multiplied."""
    if len(parts) == 1:
        return parts[0]
    out = [((), 1)]  # also the product of no lists
    for part in parts:
        out = [(k + pk, x * px) for k, x in out for pk, px in part]
    return out


class _Node:
    """One subterm of a formula evaluated as joins.

    what is the variable, the operator word multiplied out or the structure
    name; a sum's children are (integer multiplier, node) pairs; free holds
    the subterm's variables in ascending order and scale is its s.  A
    contraction's join is (the slots whose argument is looked up, the key
    assembler).
    """

    __slots__ = ("kind", "what", "children", "free", "scale", "join")

    def __init__(self, kind: str, what, children: tuple, free: tuple, scale: int):
        self.kind, self.what, self.children, self.free, self.scale = kind, what, children, free, scale
        self.join = None
        if kind in _SLOTS:
            # a basis variable other than the first matches every entry, so only the
            # other arguments are looked up; a key is read from the entry's indices
            # and the looked-up arguments' keys, laid end to end
            looked_up = [s for s, a in enumerate(children) if a.kind != "var" or a.what == 0]
            order = tuple(-1 - s if s in looked_up else a.what for s, a in enumerate(children))
            order += sum((children[s].free for s in looked_up), ())
            self.join = looked_up, _assembler(order, free)


class _Joins:
    """The nonzero residuals of one formula on integer structures, computed as
    joins over the structures' supports, one value x0 of the first variable at
    a time.

    A node's value is {key: s * the subterm}, the key the values of its
    variables.  A node not reading the first variable is computed once, one
    reading it once per slice.  The residual's terms add their products into
    one accumulator per slice, which is yielded in lex order and dropped.
    """

    def __init__(self, top: tuple, arity: int, dim: int, structures: dict, denominators: dict):
        self.dim, self.structures, self.denominators = dim, structures, denominators
        self.top, self.arity = self.node(top, {}), arity
        self.static, self.sliced, self.x0 = {}, {}, None

    def node(self, t: tuple, nodes: dict) -> _Node:
        """t's node, built with its subterms'; equal subterms share one."""
        if t in nodes:
            return nodes[t]
        kind = t[0]
        if kind == "var":
            what, children, free, scale = t[1], (), {t[1]}, 1
        elif kind == "sum":
            parts = [(c, self.node(u, nodes)) for c, u in t[1]]
            scale = math.lcm(*(c.denominator * u.scale for c, u in parts))
            children = tuple((scale * c.numerator // (c.denominator * u.scale), u) for c, u in parts)
            what, free = None, set().union(*(u.free for _, u in parts))
        else:
            children = tuple(self.node(a, nodes) for a in ([t[2]] if kind == "op" else t[2:]))
            names = t[1] if kind == "op" else [t[1]]
            what = functools.reduce(operator.matmul, [self.structures[n] for n in names]) if kind == "op" else t[1]
            scale = math.prod([self.denominators[n] for n in names] + [u.scale for u in children])
            free = set().union(*(u.free for u in children))
        nodes[t] = _Node(kind, what, children, tuple(sorted(free)), scale)
        return nodes[t]

    def residuals(self):
        """(indices, residual) for every basis tuple with a nonzero residual, in lex order."""
        scale, wide = self.top.scale, tuple(range(self.arity))
        for self.x0 in range(self.dim):
            self.sliced, acc = {}, {}
            self.add(self.top, acc, 1, wide)
            for key in sorted(acc):
                if acc[key]:
                    yield key, acc[key] if scale == 1 else core.vec_div(acc[key], scale)

    def values_of(self, k: int):
        return (self.x0,) if k == 0 else range(self.dim)

    def cache(self, node: _Node) -> dict:
        return self.sliced if node.free[0] == 0 else self.static

    def add(self, node: _Node, acc: dict, m: int, wide: tuple) -> None:
        """acc[key over wide] += m * (the node's value), its variables among wide."""
        if node.kind == "sum":
            for mi, u in node.children:
                self.add(u, acc, m * mi, wide)
            return
        if node.join and node.free == wide:
            self.contract(node, acc, m)
            return
        missing = tuple(v for v in wide if v not in node.free)
        assemble = _assembler(node.free + missing, wide)
        extras = list(itertools.product(*map(self.values_of, missing)))
        iadd = core.vec_iadd
        for key, vec in self.value(node).items():
            for extra in extras:
                iadd(acc.setdefault(assemble(key + extra), {}), vec, m)

    def value(self, node: _Node) -> dict:
        cache = self.cache(node)
        if node not in cache:
            if node.kind == "var":
                values = {(i,): {i: 1} for i in self.values_of(node.what)}
            elif node.kind == "op":
                word = node.what
                values = {key: w for key, v in self.value(node.children[0]).items() if (w := word.apply(v))}
            else:
                values = {}
                self.add(node, values, 1, node.free)
            cache[node] = values
        return cache[node]

    def components(self, node: _Node) -> dict:
        """{component: [(key, coefficient)]}: the node's value indexed by output component."""
        cache = self.cache(node)
        if ("index", node) not in cache:
            index = {}
            for key, vec in self.value(node).items():
                for k, c in vec.items():
                    index.setdefault(k, []).append((key, c))
            cache["index", node] = index
        return cache["index", node]

    def contract(self, node: _Node, acc: dict, m: int) -> None:
        """acc[key] += m * (the node's value) for a contraction: a join over the
        structure entries whose every slot is a component of its argument."""
        looked_up, assemble = node.join
        index = [self.components(u) for u in node.children]
        if not all(index):
            return
        # drive the join from the argument with the fewest components, a looked-up one on a tie
        drive = min(range(len(index)), key=lambda s: (len(index[s]), s not in looked_up))
        iadd, rows = core.vec_iadd, self.structures[node.what].entries_by(drive)
        for c in index[drive]:
            for ix, vec in rows.get(c, ()):
                parts = [index[s].get(ix[s]) for s in looked_up]
                if not all(parts):
                    continue
                for k, x in _product(parts):
                    key = assemble(ix + k)
                    if key is not None:
                        target = acc.get(key)
                        if target is None:
                            target = acc[key] = {}
                        iadd(target, vec, m * x)


class Formula:
    """One identity, or one derived structure, parsed on first use.

    name is the report name of a scan; variables are the basis letters in
    scan order, e.g. "X Y Z"; text is the formula itself.
    """

    def __init__(self, name: str, variables: str, text: str):
        self.name, self.text = name, text
        self.variables = tuple(variables.split())
        self.arity = len(self.variables)

    @functools.cached_property
    def _parsed(self) -> tuple:
        """(residual term, the sorted names of the structures it reads), read by both evaluators."""
        top = _Parser(self.text, self.variables).residual()
        return top, tuple(sorted(_structure_names(top)))

    @functools.cached_property
    def _nest(self) -> tuple:
        """(nest, the sorted names of the structures it reads, its orbit),
        nest(_iadd, _scale, _gather, _range, **tables, **structures,
        **denominators) the generator of nonzero residuals, where tables maps
        _from<b> to the range of b's loop at each value of its bound (see
        _bounds), each structure is an integer form and denominators maps
        _d_<name> to its d.  The orbit is _orbit's group of the residual.  The
        code and the orbit come from the machine's cache on a hit, and are
        generated, compiled and stored on a miss."""
        ident = re.sub(r"\W", "_", self.name)  # so that a profile names the formula
        path, key = _cache_file(self, ident)
        cached = _load(path, key)
        if cached is None:
            structures, orbit = self._parsed[1], _orbit(self._parsed[0], self.arity)
            code = compile(self._source(ident, orbit), "<string>", "exec", dont_inherit=True)
            if path is not None and not sys.dont_write_bytecode:
                _store(path, (key, structures, code, orbit))
        else:
            structures, code, orbit = cached
        namespace = {"_lcm": math.lcm, "_div": core.vec_div}
        exec(code, namespace)
        return namespace[f"nonzero_{ident}"], structures, orbit

    def _source(self, ident: str, orbit: tuple) -> str:
        """The text of the nest's def, named nonzero_<ident>, whose loops start
        at the bounds of the orbit."""
        top, structures = self._parsed
        gen = _Codegen(top, self.arity)
        bounds = _bounds(orbit)
        tables = [f"_from{b}" for b in sorted(bounds)]
        arguments = ", ".join([*tables, *structures, *(f"_d_{name}" for name in structures)])
        source = [
            f"def nonzero_{ident}(_iadd, _scale, _gather, _range, {arguments}):",
            *(f"    {name} = {' @ '.join(word)}" for word, name in gen.words.items()),
        ]
        for depth, lines in enumerate(gen.lines):
            indent = "    " * (depth + 1)
            if depth:
                b = depth - 1
                loop = f"_from{b}[_x{bounds[b][0]}]" if b in bounds else "_range"
                source.append(f"{indent[4:]}for _x{b} in {loop}:")
            source += [indent + line for line in lines]
        indices = ", ".join(f"_x{k}" for k in range(self.arity))
        residual = gen.result
        if gen.scale != "1":
            residual += f" if {gen.scale} == 1 else _div({gen.result}, {gen.scale})"
        source += [f"{indent}if {gen.result}:", f"{indent}    yield ({indices},), {residual}"]
        return "\n".join(source)

    def bind(self, structures: dict) -> tuple:
        """(generator of nonzero residuals, dimension, orbit) on the structures
        the formula names, refused above the dimension guard for its arity
        unless forced.

        The generator yields (indices, residual) in lexicographic order for
        every basis tuple with a nonzero residual that is the lex-smallest of
        its orbit: from joins at arity 4 and above, from the loop nest below.
        The orbit is the nest's where every bracket the formula reads is
        antisymmetric and every triple outer-symmetric (their mirrored
        property), and the identity alone otherwise, so that every nonzero
        tuple is yielded.
        """
        joins = self.arity >= 4  # the module docstring says why arity decides
        if joins:
            (top, names), orbit = self._parsed, ((tuple(range(self.arity)), 1),)
        else:
            nest, names, orbit = self._nest
        used = {key: structures[key] for key in names}
        dims = {s.dim for s in used.values()}
        if len(dims) != 1:
            raise core.DimensionMismatchError(f"{self.name}: structure dimensions differ")
        dim = dims.pop()
        core.guard_scan(dim, self.arity, self.name)
        forms = {key: s.integer_form() for key, s in used.items()}
        integer = {key: form for key, (form, _) in forms.items()}
        if joins:
            denominators = {key: d for key, (_, d) in forms.items()}
            return _Joins(top, self.arity, dim, integer, denominators).residuals(), dim, orbit
        bounds, full = _bounds(orbit), range(dim)
        if bounds and not all(s.mirrored for s in used.values() if not isinstance(s, core.Operator)):
            orbit = orbit[:1]
        tables = {
            f"_from{b}": [range(i + strict, dim) for i in full] if len(orbit) > 1 else [full] * dim
            for b, (_, strict) in bounds.items()
        }
        denominators = {f"_d_{key}": d for key, (_, d) in forms.items()}
        nonzero = nest(core.vec_iadd, core.vec_scale, core.vec_gather, full, **tables, **integer, **denominators)
        return nonzero, dim, orbit


def scan(formula: Formula, structures: dict, name=None, notes=(), informational=False):
    """Check an identity on every basis tuple in lex order; the first failure is
    the witness.  The smallest failing tuple is the smallest of its orbit, so the
    first yield of bind is the witness of a tuple-by-tuple scan."""
    nonzero, dim, _ = formula.bind(structures)
    return core.scan_tuples(name or formula.name, dim, formula.arity, nonzero, notes, informational)


def scan_each_s(formula: Formula, structures: dict, name: str) -> tuple:
    """(the scan with S = R1, the scan with S = R2), named name-r1 and
    name-r2; when R1 and R2 are one operator, the second is the first renamed."""
    r1 = scan(formula, {**structures, "S": structures["R1"]}, name=f"{name}-r1")
    if structures["R2"] is structures["R1"]:
        return r1, r1.replace(name=f"{name}-r2")
    return r1, scan(formula, {**structures, "S": structures["R2"]}, name=f"{name}-r2")


def tabulate(formula: Formula, structures: dict):
    """Structure tensor whose (i, j[, k]) entry is the formula at those basis
    vectors: each yield of bind, and its images under the orbit with their sign."""
    nonzero, dim, orbit = formula.bind(structures)
    entries = {}
    for idx, residual in nonzero:
        for p, sign in orbit:
            entries[tuple(idx[k] for k in p)] = residual if sign == 1 else core.vec_scale(residual, -1)
    return core.TENSOR_CLASSES[formula.arity](dim, entries)


def states(*formulas):
    """Decorator: append the formulas a function checks or builds to its docstring."""

    def document(fn):
        lines = [f"    {f.name}, over ({', '.join(f.variables)}): {f.text}" for f in formulas]
        fn.__doc__ = (fn.__doc__ or "").rstrip() + "\n\n    Formulas:\n" + "\n".join(lines) + "\n"
        return fn

    return document
