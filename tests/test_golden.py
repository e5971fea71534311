"""Golden report corpus: the sha256 of every report a fixed set of CLI calls prints.

Each case runs one `opalg` command (or one library check with no CLI suite)
and hashes its exit code plus the exact report bytes, so any change to a
verdict, a witness, a residual or the JSON layout shows up as a changed
digest.  Every `check` and `derive` case passes `--force`, so no case
depends on the dimension guards.

The cases run in the test process: a verdict depends only on the input and
the flags, never on what ran before it.  The digests live in
golden_sha256.json next to this file.  To rebuild them after an intended
change of report bytes:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import os
import random
import sys
import tempfile

import pytest

from opalg import formula
from opalg.cli import main
from opalg.formula import Formula

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_sha256.json")

# What each catalog entry carries: bracket (always), triple, operator names.
_GL_OPS = ("R1", "R2", "xi", "R", "rho")
ENTRIES = {
    "so3": (False, ()),
    "so4": (False, ()),
    "gl2": (True, ()),
    "gl3": (True, ()),
    "example1-so3": (True, ("Ra", "Rb")),
    "example1-so3?triple=two-term": (True, ("Ra", "Rb")),
}
for _q in ("", "?q=seed:1"):
    for _n in (2, 3):
        ENTRIES[f"example2-gl{_n}{_q}"] = (True, _GL_OPS)
        ENTRIES[f"example3-gl{_n}{_q}"] = (True, _GL_OPS)
    for _n in (3, 4):
        ENTRIES[f"example4-so{_n}{_q}"] = (False, ("R", "rho"))

# What each suite reads with its default operator names.
SUITE_NEEDS = {
    "lie-base": (False, ()),
    "myb": (False, ("R",)),
    "bi-myb": (False, ("R1", "R2")),
    "even-tempered": (False, ("R1", "R2")),
    "xi": (False, ("R", "xi")),
    "r0-probe": (False, ("R1", "R2")),
    "jordan-base": (True, ()),
    "triple-myb": (True, ("R",)),
    "triple-bi-myb": (True, ("R1", "R2")),
    "design": (True, ()),
    "equivariance": (True, ()),
    "rho": (True, ("rho",)),
    "rrho": (False, ("R", "rho")),
    "rrho+bunch": (False, ("R", "rho")),
}

SEARCH_TARGETS = (
    "so3-non-myb",
    "triple-r-mode-disagreement",
    "r0-not-myb",
    "non-even-tempered",
    "non-even-tempered-diagonal-R",
    "non-normal-triple",
    "example4-non-factorizable",
)


def _cases() -> dict:
    cases = {}
    for entry, (has_triple, ops) in ENTRIES.items():
        src = f"catalog:{entry}"
        for suite, (needs_triple, needs_ops) in SUITE_NEEDS.items():
            if (has_triple or not needs_triple) and set(needs_ops) <= set(ops):
                cases[f"check {entry} {suite}"] = ["check", src, "--suite", suite]
        if "R" in ops:
            cases[f"derive {entry} derived-bracket"] = ["derive", src, "--what", "derived-bracket"]
        if {"R", "rho"} <= set(ops):
            cases[f"derive {entry} quadratic-bracket"] = ["derive", src, "--what", "quadratic-bracket"]
        if has_triple and "R" in ops:
            for op in ("R", "R1"):
                for mode in ("full", "reduced"):
                    cases[f"derive {entry} derived-triple {op} {mode}"] = [
                        "derive", src, "--what", "derived-triple", "--operator", op, "--mode", mode,
                    ]
    # the candidate operator readings and identity variants adjudicated in the findings
    for entry in ("example1-so3", "example1-so3?triple=two-term"):
        for op in ("Ra", "Rb"):
            cases[f"check {entry} myb {op}"] = ["check", f"catalog:{entry}", "--suite", "myb", "--operator", op]
            cases[f"check {entry} triple-myb {op}"] = [
                "check", f"catalog:{entry}", "--suite", "triple-myb", "--operator", op,
            ]
    for entry in ("gl2", "example1-so3", "example1-so3?triple=two-term"):
        for suite in ("jordan-base", "design"):
            cases[f"check {entry} {suite} alternate"] = [
                "check", f"catalog:{entry}", "--suite", suite, "--variant", "alternate",
            ]
    for entry in ("example3-gl2", "example3-gl2?q=seed:1", "example3-gl3?q=seed:1"):
        for op in ("R1", "R"):
            cases[f"check {entry} rho transport {op}"] = [
                "check", f"catalog:{entry}", "--suite", "rho", "--operator2", op,
            ]
    for name, argv in cases.items():
        argv.append("--force")
        if argv[0] == "check":
            argv += ["--format", "json"]
    # the text layout, with a notes= line and a finding: line
    cases["check example3-gl2 rho transport R1 text"] = [
        "check", "catalog:example3-gl2", "--suite", "rho", "--operator2", "R1", "--force", "--format", "text",
    ]
    cases["check example3-gl2 r0-probe text"] = [
        "check", "catalog:example3-gl2", "--suite", "r0-probe", "--force", "--format", "text",
    ]
    for target in SEARCH_TARGETS:
        for seed in ("1", "2"):
            cases[f"search {target} seed {seed}"] = ["search", target, "--seed", seed, "--trials", "4"]
        cases[f"search {target} seed 3 trials 16"] = ["search", target, "--seed", "3", "--trials", "16"]
    # one --dim per catalog family, a smaller entry bound, and the text layout
    for target, dim in (("non-even-tempered", "3"), ("example4-non-factorizable", "4")):
        cases[f"search {target} dim {dim}"] = ["search", target, "--seed", "1", "--trials", "4", "--dim", dim]
    cases["search example4-non-factorizable entry-bound 1"] = [
        "search", "example4-non-factorizable", "--seed", "1", "--trials", "16", "--entry-bound", "1",
    ]
    cases["search non-normal-triple seed 1 text"] = [
        "search", "non-normal-triple", "--seed", "1", "--trials", "4", "--format", "text",
    ]
    cases["findings"] = ["findings"]
    return cases


def _library_report(name, q):
    """Checks with no CLI suite, run through the library API."""
    import opalg as oa

    entry = oa.build_entry(f"example3-gl2{q}")
    ops = entry.operators
    if name == "polynomial-closure":
        _, report = oa.check_polynomial_closure(oa.LieWithOperator(entry.bracket, ops["R1"]), (1, 2, -3))
    elif name == "triple-r-homomorphism":
        proven = oa.prove_jts(entry.triple, oa.VARIANT_JACOBSON)[1]
        _, report = oa.check_triple_r_homomorphism(oa.TripleWithOperator(proven, ops["R1"]))
    elif name == "triple-r-homomorphism-unchecked":
        _, report = oa.check_triple_r_homomorphism(oa.TripleWithOperator(entry.triple, ops["R2"]))
    elif name == "gamma-bunch-of-a-non-pair":
        report = oa.check_gamma_bunch(oa.build_bunch(oa.RRhoAlgebra(entry.bracket, ops["R"], ops["R1"])))
    elif name == "gamma-bunch-r0-not-identity":
        # r0 = X -> -X^T, an automorphism of gl(2): no bunch built from a pair has r0 != 1
        b0 = entry.bracket
        b2 = oa.BilinearStructure.from_rows(4, [(*row[:-1], 2 * row[-1]) for row in b0.sorted_rows()])
        r0 = oa.Operator(((-1, 0, 0, 0), (0, 0, -1, 0), (0, -1, 0, 0), (0, 0, 0, -1)))
        report = oa.check_gamma_bunch(oa.QuadraticBunch(b0, b0, b2, r0, ops["R1"], ops["rho"]))
    else:
        return _random_operator_reports(entry, 7 if q else 3)
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def _random_operator_reports(entry, seed) -> str:
    """Every identity on generic operators and a perturbed triple, so each one
    fails and its witness residual is pinned."""
    import random

    import opalg as oa

    rng = random.Random(seed)
    values = (-2, -1, 0, 0, 1, 2, oa.scalar(1, 2), oa.scalar(-3, 2))
    dim = entry.dim

    def operator():
        return oa.Operator([[rng.choice(values) for _ in range(dim)] for _ in range(dim)])

    b, t = entry.bracket, entry.triple
    R1, R2 = operator(), operator()
    bent = oa.TrilinearStructure.from_rows(
        dim, [row for row in t.sorted_rows() if row[:4] != (0, 1, 1, 0)] + [(0, 1, 1, 0, 5)]
    )
    bad_bracket = oa.BilinearStructure.from_rows(3, [(0, 1, 0, 1), (1, 0, 0, -1), (1, 2, 1, 1), (2, 1, 1, 1)])
    g = oa.LieWithOperator(b, R1)
    with oa.forced():
        jts = [oa.check_jts_identity(bent, variant) for variant in (oa.VARIANT_JACOBSON, oa.VARIANT_ALTERNATE)]
    reports = [
        oa.check_antisymmetry(bad_bracket),
        oa.check_jacobi(bad_bracket),
        *jts,
        oa.check_equivariance(b, bent),
        oa.check_design(oa.DesignCandidate(b, bent)),
        oa.check_myb(g),
        oa.check_bi_myb(oa.LieBiOperator(b, R1, R2)),
        oa.check_even_tempered(oa.LieBiOperator(b, R1, R2)),
        oa.check_xi_characterization(g, R2),
        oa.check_even_tempered_xi(g, R2),
        oa.check_triple_myb(oa.TripleWithOperator(oa.prove_jts(t, oa.VARIANT_JACOBSON)[1], R1)),
        oa.check_triple_bi_myb(oa.TripleWithOperator(t, R1), oa.TripleWithOperator(t, R2)),
        # the entry's R1 passes triple mYB, so the generic R1 as rho transports its reduced triple
        oa.check_rho_identity(oa.TripleWithOperator(t, entry.operators["R1"]), R1),
        oa.check_rrho(oa.RRhoAlgebra(b, R1, R2)),
        oa.check_gamma_bunch(oa.build_bunch(oa.RRhoAlgebra(b, R1, R2))),
    ]
    tensors = [
        oa.derived_bracket(b, R1),
        oa.RRhoAlgebra(b, R1, R2).bracket_rho,
        oa.derived_triple(t, R1, oa.MODE_FULL),
        oa.derived_triple(t, R1, oa.MODE_REDUCED),
    ]
    doc = {
        "reports": [r.to_dict() for r in reports],
        "tensors": [[[*row[:-1], oa.render_scalar(row[-1])] for row in x.sorted_rows()] for x in tensors],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


LIBRARY_CASES = (
    "polynomial-closure",
    "triple-r-homomorphism",
    "triple-r-homomorphism-unchecked",
    "gamma-bunch-of-a-non-pair",
    "gamma-bunch-r0-not-identity",
    "generic-operators",
)

CASES = _cases()
for _name in LIBRARY_CASES:
    for _q in ("", "?q=seed:1"):
        CASES[f"library {_name} example3-gl2{_q}"] = ["library", _name, _q]


def run_case(argv) -> str:
    """The digest of the exit code, the report written to a fresh file (empty
    when the command writes none) and, when there is any, the stderr text."""
    if argv[0] == "library":
        code, body = 0, _library_report(argv[1], argv[2]).encode()
    else:
        with tempfile.TemporaryDirectory() as tmp:
            out_path = os.path.join(tmp, "report")
            with contextlib.redirect_stderr(io.StringIO()) as stderr:
                code = main([*argv, "--out", out_path])
            body = b""
            if os.path.exists(out_path):
                with open(out_path, "rb") as fh:
                    body = fh.read()
        body += stderr.getvalue().encode()
    return hashlib.sha256(f"exit {code}\n".encode() + body).hexdigest()


def compute_digests(each=None) -> dict:
    """The digest of every case; each(case), if given, is called before the case runs."""
    digests = {}
    for case in sorted(CASES):
        if each:
            each(case)
        digests[case] = run_case(CASES[case])
    return digests


def _forget_compiled_nests(patch, prefix) -> None:
    """Point the formula cache at prefix, as ``-X pycache_prefix=`` would, with
    bytecode writes on, and drop what every formula in this process parsed or
    compiled, so that its next bind reads the cache or compiles."""
    patch.setattr(sys, "pycache_prefix", str(prefix))
    patch.setattr(sys, "dont_write_bytecode", False)
    os.makedirs(os.path.dirname(importlib.util.cache_from_source(formula.__file__)), exist_ok=True)
    for f in gc.get_objects():
        if isinstance(f, Formula):
            vars(f).pop("_parsed", None)
            vars(f).pop("_nest", None)


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory) -> tuple:
    """The digests, for each case the formulas it bound again on structures
    equal to those of an earlier bind, recorded by wrapping Formula.bind in the
    same pass, and the pycache prefix of the formula cache the pass started
    empty and filled."""
    repeated = {}
    prefix = tmp_path_factory.mktemp("pycache")
    bind = Formula.bind

    def each(case):
        bound, repeated[case] = set(), []

        def recorded(self, structures):
            key = (self.name, *((name, structures[name]) for name in self._parsed[1]))
            if key in bound:
                repeated[case].append(self.name)
            bound.add(key)
            return bind(self, structures)

        patch.setattr(Formula, "bind", recorded)

    with pytest.MonkeyPatch.context() as patch:
        _forget_compiled_nests(patch, prefix)
        return compute_digests(each), repeated, prefix


@pytest.fixture(scope="module")
def digests(golden_run):
    return golden_run[0]


def _load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_match_golden(case, digests):
    assert digests[case] == _load_golden()[case]


def test_a_warm_formula_cache_gives_the_golden_digests_without_compiling(golden_run, monkeypatch):
    # golden_run started with an empty cache; this pass reads every nest from it
    _forget_compiled_nests(monkeypatch, golden_run[2])
    compiled = []
    monkeypatch.setattr(formula, "compile", lambda *a, **k: compiled.append(a) or compile(*a, **k), raising=False)
    assert compute_digests() == _load_golden()
    assert compiled == []


def test_golden_file_lists_exactly_the_cases():
    assert sorted(_load_golden()) == sorted(CASES)


def test_a_case_that_writes_nothing_hashes_no_earlier_report():
    refused = ["derive", "catalog:example3-gl2", "--what", "derived-triple", "--operator", "R", "--mode", "reduced"]
    after = set()
    for earlier in ("so3", "gl2"):
        run_case(["catalog", "export", earlier])
        after.add(run_case(refused))
    assert len(after) == 1


# Cases rerun after the full pass, in reverse sorted order and in a seeded
# shuffle: every formula of arity 4 and 5 on each catalog triple of dimension
# at most 4 and on one of dimension 9, both JTS variants, rational and integer
# Q, and some arity-2/3 checks, two searches and a library call between them.
ORDER_SAMPLE = (
    "check example1-so3 design",
    "check example1-so3 jordan-base alternate",
    "check example1-so3?triple=two-term design alternate",
    "check example1-so3?triple=two-term jordan-base",
    "check gl2 design",
    "check gl2 jordan-base alternate",
    "check gl2 equivariance",
    "check example2-gl3 equivariance",
    "check example2-gl2?q=seed:1 jordan-base",
    "check example3-gl2 design",
    "check example3-gl2 triple-bi-myb",
    "check example3-gl2 rho transport R1",
    "check example3-gl2 rrho+bunch",
    "check example3-gl2?q=seed:1 design",
    "check example3-gl2?q=seed:1 equivariance",
    "search r0-not-myb seed 1",
    "search non-normal-triple seed 1",
    "library triple-r-homomorphism example3-gl2?q=seed:1",
)


def test_a_sample_rerun_in_reverse_order_gives_the_same_digests(digests):
    # a verdict depends only on the input and the flags, not on what an
    # evaluator kept from the cases that ran before it in this process
    assert set(ORDER_SAMPLE) <= set(CASES)
    again = {case: run_case(CASES[case]) for case in sorted(ORDER_SAMPLE, reverse=True)}
    assert again == {case: digests[case] for case in ORDER_SAMPLE}


def test_a_sample_rerun_in_a_seeded_shuffle_gives_the_same_digests(digests):
    order = sorted(ORDER_SAMPLE)
    random.Random(20261019).shuffle(order)
    assert order not in (sorted(ORDER_SAMPLE), sorted(ORDER_SAMPLE, reverse=True))
    again = {case: run_case(CASES[case]) for case in order}
    assert again == {case: digests[case] for case in ORDER_SAMPLE}


def test_no_check_binds_a_formula_twice_on_equal_structures(golden_run):
    # a derived tensor is a value of the record that defines it, and a
    # proven structure carries its proof, so no request tabulates or scans
    # the same thing twice
    checks = [case for case in CASES if case.startswith("check ")]
    assert len(checks) == 168
    assert {case: golden_run[1][case] for case in checks if golden_run[1][case]} == {}
    # the findings items share their gl(2) record, and a search that passes
    # one operator as both of a pair scans each condition on it once
    others = ["findings"] + [case for case in CASES if case.startswith("search ")]
    assert len(others) == 26
    assert {case: golden_run[1][case] for case in others if golden_run[1][case]} == {}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(compute_digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
