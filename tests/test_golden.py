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

import hashlib
import json
import os
import sys

import pytest

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
    for target in SEARCH_TARGETS:
        for seed in ("1", "2"):
            cases[f"search {target} seed {seed}"] = ["search", target, "--seed", seed, "--trials", "4"]
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
        _, report = oa.check_triple_r_homomorphism(oa.TripleWithOperator(entry.triple, ops["R1"]))
    elif name == "triple-r-homomorphism-unchecked":
        _, report = oa.check_triple_r_homomorphism(oa.TripleWithOperator(entry.triple, ops["R2"], unchecked=True))
    elif name == "gamma-bunch-of-a-non-pair":
        report = oa.check_gamma_bunch(oa.build_bunch(oa.RRhoAlgebra(entry.bracket, ops["R"], ops["R1"])))
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
        oa.check_triple_myb(oa.TripleWithOperator(t, R1)),
        oa.check_triple_bi_myb(t, R1, R2),
        oa.check_rho_identity(t, R1, oa.derived_triple(t, R2, oa.MODE_FULL)),
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
    "generic-operators",
)

CASES = _cases()
for _name in LIBRARY_CASES:
    for _q in ("", "?q=seed:1"):
        CASES[f"library {_name} example3-gl2{_q}"] = ["library", _name, _q]


def run_case(argv, out_path) -> str:
    if argv[0] == "library":
        code, body = 0, _library_report(argv[1], argv[2]).encode()
    else:
        code = main([*argv, "--out", str(out_path)])
        with open(out_path, "rb") as fh:
            body = fh.read()
    return hashlib.sha256(f"exit {code}\n".encode() + body).hexdigest()


def compute_digests(each=None) -> dict:
    """The digest of every case; each(case), if given, is called before the case runs."""
    import tempfile

    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            if each:
                each(case)
            digests[case] = run_case(CASES[case], os.path.join(tmp, "report"))
    return digests


@pytest.fixture(scope="module")
def golden_run() -> tuple:
    """The digests, and for each case the formulas it bound again on
    structures equal to those of an earlier bind, recorded by wrapping
    Formula.bind in the same pass."""
    repeated = {}
    bind = Formula.bind

    def each(case):
        bound, repeated[case] = set(), []

        def recorded(self, structures):
            key = (self.name, *((name, structures[name]) for name in self._compiled[0]))
            if key in bound:
                repeated[case].append(self.name)
            bound.add(key)
            return bind(self, structures)

        patch.setattr(Formula, "bind", recorded)

    with pytest.MonkeyPatch.context() as patch:
        return compute_digests(each), repeated


@pytest.fixture(scope="module")
def digests(golden_run):
    return golden_run[0]


def _load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_match_golden(case, digests):
    assert digests[case] == _load_golden()[case]


def test_golden_file_lists_exactly_the_cases():
    assert sorted(_load_golden()) == sorted(CASES)


def test_no_check_binds_a_formula_twice_on_equal_structures(golden_run):
    # a derived tensor is a value of the record that defines it, and a
    # proven structure carries its proof, so no request tabulates or scans
    # the same thing twice
    checks = [case for case in CASES if case.startswith("check ")]
    assert len(checks) == 166
    assert {case: golden_run[1][case] for case in checks if golden_run[1][case]} == {}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(compute_digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
