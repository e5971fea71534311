"""Machine-readable findings for the source text's ambiguous items.

Five items are adjudicated by exhaustive checks plus the free-word oracle:
the two candidate operator readings on so(3), the two candidate form-built
triples, the sign of the matrix-algebra derived triple, the five-variable
triple-system identity variants, and the first expression of the
even-tempered chain for two-operator triple systems.  The document is
deterministic: fixed instances, fixed iteration order, canonical scalars.
"""

from __future__ import annotations

import json

from . import __version__
from .catalog import example1_candidates, example3_gl
from .core import VARIANT_ALTERNATE, VARIANT_JACOBSON, check_jts_identity, require_lie, tensors_equal_report
from .jordan import (
    DesignCandidate,
    TripleWithOperator,
    check_design,
    check_triple_bi_myb,
)
from .lie import check_myb_raw
from .oracles import (
    mat_add,
    mat_mul,
    mat_sub,
    word,
    word_add,
    word_is_zero,
    word_mul,
    word_scale,
    word_triple,
)
from .scalars import render_scalar


def _verdict(report) -> dict:
    out = {"passed": report.passed, "tuples_evaluated": report.tuples_evaluated}
    if report.witness is not None:
        out["witness"] = report.witness.to_dict()
    return out


def _words_dict(expr) -> dict:
    return {" ".join(w): render_scalar(c) for w, c in sorted(expr.items())}


def _operator_readings_item() -> dict:
    entry = example1_candidates()
    readings = {
        "Ra. form projection X -> F(X0,X) X0": entry.operators["Ra"],
        "Rb. bracket multiplication X -> [X0,X]": entry.operators["Rb"],
    }
    return {
        "question": (
            "the operator on so(3) is written as a form value, which maps "
            "vectors to scalars; two operator readings are checked"
        ),
        "instances": {
            label: {"myb": _verdict(check_myb_raw(entry.bracket, op))}
            for label, op in readings.items()
        },
        "conclusion": "neither candidate reading satisfies the mYB identity on so(3)",
    }


def _triple_candidates_item() -> dict:
    entry = example1_candidates()
    triples = {
        "two-term F(X,Y)Z + F(Y,Z)X": entry.extra_triples["two-term"],
        "three-term F(X,Y)Z + F(Y,Z)X - F(X,Z)Y": entry.triple,
    }
    out = {}
    bracket = require_lie(entry.bracket)
    for label, triple in triples.items():
        design = check_design(DesignCandidate(bracket, triple))
        out[label] = {
            "jts-jacobson": _verdict(design.sub("jts-jacobson")),
            "jts-alternate": _verdict(check_jts_identity(triple, VARIANT_ALTERNATE)),
            "equivariance": _verdict(design.sub("equivariance")),
            "bracket-condition": _verdict(design.sub("polarized-bracket-condition")),
        }
    return {
        "question": (
            "the displayed form-built triple lacks the -F(X,Z)Y term of the "
            "standard three-term triple; both candidates are checked"
        ),
        "instances": out,
        "conclusion": (
            "both candidates satisfy the jacobson identity, equivariance and "
            "the design bracket condition on so(3); both fail the alternate identity"
        ),
    }


def _derived_triple_sign_item(entry, s1: TripleWithOperator) -> dict:
    Q = entry.q
    # R1 satisfies triple mYB, which the reduced form presupposes, so triple_r
    # holds the tensor; the jts-variant item checks this triple's JTS identity
    _, derived = s1.triple_r

    def monomial(x, y, z):
        return mat_mul(mat_mul(mat_mul(mat_mul(x, Q), y), Q), z)

    plus = entry.trilinear_tensor_from_matrices(
        lambda x, y, z: mat_add(monomial(x, y, z), monomial(z, y, x))
    )
    minus = entry.trilinear_tensor_from_matrices(
        lambda x, y, z: mat_sub(monomial(x, y, z), monomial(z, y, x))
    )
    # free-word expansion of the reduced derived triple with R = right mult by q
    x, y, z, q = word("x"), word("y"), word("z"), word("q")
    reduced_free = word_add(
        word_triple(word_mul(x, q), word_mul(y, q), z),
        word_triple(x, word_mul(y, q), word_mul(z, q)),
    )
    reduced_free = word_add(reduced_free, word_mul(word_triple(x, word_mul(y, q), z), q), -1)
    plus_free = word_add(
        word_mul(word_mul(word_mul(word_mul(x, q), y), q), z),
        word_mul(word_mul(word_mul(word_mul(z, q), y), q), x),
    )
    minus_free = word_add(
        word_mul(word_mul(word_mul(word_mul(x, q), y), q), z),
        word_mul(word_mul(word_mul(word_mul(z, q), y), q), x),
        -1,
    )
    return {
        "question": "derived triple of right multiplication: XQYQZ + ZQYQX or XQYQZ - ZQYQX?",
        "tensor-comparison": {
            "plus-candidate": _verdict(tensors_equal_report("plus", derived, plus)),
            "minus-candidate": _verdict(tensors_equal_report("minus", derived, minus)),
        },
        "free-expansion": {
            "reduced-minus-plus-residual": _words_dict(word_add(reduced_free, plus_free, -1)),
            "reduced-minus-minus-residual": _words_dict(word_add(reduced_free, minus_free, -1)),
        },
        "conclusion": (
            "the derived triple is XQYQZ + ZQYQX (plus sign), both on the gl(2) "
            "tensors and in the free associative algebra"
        ),
    }


def _jts_variant_item(entry) -> dict:
    a, b, x, y, z = (word(s) for s in "abxyz")
    jac_res = word_add(
        word_triple(a, b, word_triple(x, y, z)),
        word_add(
            word_add(
                word_triple(word_triple(a, b, x), y, z),
                word_scale(word_triple(x, word_triple(b, a, y), z), -1),
            ),
            word_triple(x, y, word_triple(a, b, z)),
        ),
        -1,
    )
    alt_res = word_add(
        word_triple(x, word_triple(a, z, b), y),
        word_add(
            word_add(
                word_triple(word_triple(x, a, y), b, z),
                word_triple(word_triple(y, a, z), b, x),
            ),
            word_scale(word_triple(word_triple(x, b, y), a, z), -1),
        ),
        -1,
    )
    return {
        "question": (
            "the displayed five-variable triple-system identity differs from "
            "the classical jacobson identity; which does XYZ+ZYX satisfy?"
        ),
        "gl2-tensor-checks": {
            "jacobson": _verdict(check_jts_identity(entry.triple, VARIANT_JACOBSON)),
            "alternate": _verdict(check_jts_identity(entry.triple, VARIANT_ALTERNATE)),
        },
        "free-expansion": {
            "jacobson-residual-is-zero": word_is_zero(jac_res),
            "alternate-residual-words": _words_dict(alt_res),
        },
        "conclusion": (
            "XYZ+ZYX satisfies the jacobson identity and fails the alternate "
            "identity, exhaustively on gl(2) and identically in the free algebra"
        ),
    }


def _even_tempered_expression_item(entry, s1: TripleWithOperator) -> dict:
    report = check_triple_bi_myb(s1, TripleWithOperator(entry.triple, entry.operators["R2"]))
    return {
        "question": (
            "the even-tempered chain's first expression is printed with an "
            "(R2, R2) outer pair; the R1<->R2-symmetrized reading uses (R2, R1)"
        ),
        "gl2-tensor-checks": {
            "symmetrized-reading": _verdict(report.sub("even-tempered")),
            "as-printed-reading": _verdict(report.sub("even-tempered-as-printed")),
        },
        "conclusion": (
            "the symmetrized reading holds on example3-gl2 with Q = diag(1,2) "
            "and the printed one fails there, so the even-tempered flag uses the "
            "symmetrized reading and the printed form stays an informational check"
        ),
    }


def open_question_findings() -> dict:
    # three items read example3_gl(2); the sign and even-tempered items share
    # its R1 record, so its triple mYB scan and reduced derived triple run once
    entry = example3_gl(2)
    s1 = TripleWithOperator(entry.triple, entry.operators["R1"])
    return {
        "tool": f"opalg {__version__}",
        "items": {
            "example1-operator-readings": _operator_readings_item(),
            "example1-triple-candidates": _triple_candidates_item(),
            "example3-derived-triple-sign": _derived_triple_sign_item(entry, s1),
            "jts-identity-variant": _jts_variant_item(entry),
            "even-tempered-triple-first-expression": _even_tempered_expression_item(entry, s1),
        },
    }


def render_findings(doc: dict | None = None) -> str:
    if doc is None:
        doc = open_question_findings()
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
