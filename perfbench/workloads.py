"""Request mixes for the three workloads, with known answers.

A workload is one *cycle*: an ordered list of CLI requests built from the
workload seed.  The runner repeats whole cycles, so every run has the same
composition and the same request repeated gives the same report bytes.

Every expected exit code and every known-answer check below comes from the
mathematics (catalog expectations, theorems of the paper, hand derivations
noted inline) or from witnesses the acceptance tests assert.  None of them was
obtained by running opalg.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass, field

# so(3) in the cross-product basis with R = diag(1, 0, 0): the acceptance tests
# and the README assert that mYB fails at (e2, e3) with residual (-1, 0, 0).
SO3_PROJECTION = ("so3", "so3-diag100.json", {"R": [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]})


@dataclass
class Request:
    """One CLI invocation; ``argv`` excludes ``--format`` and ``--out``."""

    argv: list
    expect: int
    checks: list = field(default_factory=list)
    route: str = "catalog"  # catalog | file | search
    trials: int = 1  # search trials; a check request counts as one trial
    main_check: str | None = None  # search: span name of the check a trial reaches past its filters
    input_file: str | None = None  # file route: name of the exported input
    input_path: str | None = None  # file route: set once the input is exported

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass
class Workload:
    name: str
    cycle: list
    exports: list  # (catalog spec, file name, operators added or None), exported before timing


# ---------------------------------------------------------------------------
# known-answer checks: each takes the parsed report and returns an error or None


def _walk(checks):
    for c in checks:
        yield c
        yield from _walk(c["subchecks"])


def _find(report, name):
    for c in _walk(report["checks"]):
        if c["name"] == name:
            return c
    return None


def verdict_matches(expect):
    def check(report, _req):
        want = expect == 0
        if report.get("passed") is not want:
            return f"report passed={report.get('passed')} but exit code {expect} was expected"
        if not want and not any(
            not c["passed"] and not c["informational"] and c["witness"] for c in _walk(report["checks"])
        ):
            return "failing report carries no witness"
        return None

    return check


def check_outcome(name, passed, indices=None, residual=None):
    """Named (sub)check has the given outcome, and optionally this witness."""

    def check(report, _req):
        c = _find(report, name)
        if c is None:
            return f"no check named {name!r}"
        if c["passed"] is not passed:
            return f"{name}: passed={c['passed']}, expected {passed}"
        if not passed and c["witness"] is None:
            return f"{name}: failure without a witness"
        if indices is not None and c["witness"]["indices"] != indices:
            return f"{name}: witness {c['witness']['indices']} != {indices}"
        if residual is not None and c["witness"]["residual"] != residual:
            return f"{name}: residual {c['witness']['residual']} != {residual}"
        return None

    return check


def source_is(spec):
    def check(report, _req):
        return None if report.get("source") == spec else f"source {report.get('source')!r} != {spec!r}"

    return check


def digest_is_file_sha(report, req):
    """parse(render(f)) round-trips byte for byte, so the digest is the file's sha256."""
    with open(req.input_path, "rb") as fh:
        want = hashlib.sha256(fh.read()).hexdigest()
    return None if report.get("input_digest") == want else "input_digest differs from the sha256 of the input file"


def search_header(target, seed, trials):
    def check(report, _req):
        if report.get("source") != f"search:{target}" or report.get("checks") != []:
            return "search report header is wrong"
        opts = report.get("options", {})
        if opts.get("seed") != str(seed) or opts.get("trials") != str(trials):
            return f"search options {opts} do not echo seed {seed} and trials {trials}"
        if not report.get("findings"):
            return "search report has no findings (not even no-witness)"
        return None

    return check


def findings_embed_dim(kind, dim):
    """Every witness finding has the target's kind and embeds an algebra of this dimension."""

    def check(report, _req):
        for f in report["findings"]:
            if f["kind"] in ("no-witness", "factorization-search-summary"):
                continue
            if not f["kind"].startswith(kind):
                return f"unexpected finding kind {f['kind']!r}"
            if f["algebra"]["dimension"] != dim:
                return f"finding embeds dimension {f['algebra']['dimension']}, expected {dim}"
        return None

    return check


def so3_projection_first(report, _req):
    """The search tries diag(1,0,0) first; it fails mYB at (1, 2) with residual (-1, 0, 0)."""
    first = report["findings"][0]
    if first.get("candidate") != "diag(1,0,0)":
        return "first so3-non-myb finding is not diag(1,0,0)"
    if first["witness"] != {"indices": [1, 2], "residual": ["-1", "0", "0"]}:
        return f"diag(1,0,0) witness {first['witness']} != (1, 2) / (-1, 0, 0)"
    return None


def factorization_summary(trials):
    """Symmetric Q always gives an (R, rho) pair: the summary reports rrho passed."""

    def check(report, _req):
        summary = [f for f in report["findings"] if f["kind"] == "factorization-search-summary"]
        if len(summary) != 1 or summary[0]["rrho-passed"] is not True or summary[0]["trials"] != trials:
            return "factorization summary missing, or rrho did not pass, or trials not echoed"
        return None

    return check


# ---------------------------------------------------------------------------
# workload constructors


class _Seeds:
    def __init__(self, rng: random.Random):
        self.rng = rng

    def q(self, kind: str, entry: str) -> str:
        """Rational seeded Q, or integer diagonal Q with distinct nonzero entries."""
        if kind == "seed":
            return f"q=seed:{self.rng.randrange(10**6)}"
        n = int(re.search(r"\d+$", entry).group())
        return "q=diag:" + ",".join(str(v) for v in self.rng.sample([v for v in range(-6, 7) if v], n))

    def seed(self) -> int:
        return self.rng.randrange(10**6)


def dimension(entry: str) -> int:
    """Dimension of a gl(n) or so(n) catalog entry: n^2 or n(n-1)/2."""
    n = int(re.search(r"\d+$", entry.split("?")[0]).group())
    return n * n if "gl" in entry else n * (n - 1) // 2


# The request mixes follow one stated rule, not observed traffic (there is no
# record of what opalg users run):
#
# * every (suite, entry) pair of the lists below, where the entry carries
#   what the suite reads, appears once per cycle with rational Q;
# * the pairs on entries of dimension at most 4 appear a second time with
#   integer Q, which gives the integer-Q share;
# * entries of dimension above 10 (gl(4) with 16, so(6) with 15) run only the
#   suite their catalog expectation names.  All 15 of their pairs take about
#   60 s per cycle untraced, and about five times that traced, far beyond
#   one run's 180 s.
#
# Most requests are on dimension 3 or 4, where process start and `import opalg`
# are most of a request's time, so the median request is dominated by them.
SMALL = 4
LARGE = 10


def _check(spec, suite, expect, *extra, route="catalog", checks=(), file_name=None):
    argv = ["check", None, "--suite", suite, *extra]
    req = Request(argv=argv, expect=expect, route=route)
    if route == "file":
        req.input_file = file_name
    else:
        argv[1] = "catalog:" + spec
    req.checks = [verdict_matches(expect), *checks]
    if route == "catalog":
        req.checks.append(source_is(argv[1]))
    else:
        req.checks.append(digest_is_file_sha)
    return req


def _with_q(rng, pairs, large_suite):
    """(catalog spec with Q, suite) for each request the rule above gives; pairs is [(entry, suite)]."""
    s = _Seeds(rng)
    kept = [(e, suite) for e, suite in pairs if dimension(e) <= LARGE or suite[0] == large_suite[e]]
    rational = [(f"{e}?{s.q('seed', e)}", suite) for e, suite in kept]
    integer = [(f"{e}?{s.q('diag', e)}", suite) for e, suite in kept if dimension(e) <= SMALL]
    return rational + integer


def lie_suites(rng: random.Random) -> Workload:
    """Lie-algebra suites on example2-gl{2,3,4} and example4-so{3,4,5,6}.

    Expected answers: X -> XQ and X -> QX are commuting mYB operators with equal
    derived brackets on gl(n) for any Q (catalog expectation "bi-myb"; direct
    expansion), they are even-tempered (catalog expectation), R = R1 with
    xi = R2 - R1 = ad_Q passes the xi characterization (acceptance criterion 7),
    the midpoint bracket coincides (a theorem), and (R1 + R2, R1 R2) is a
    regular (R, rho) pair (criterion 6) whose quadratic bunch round-trips
    (criterion 5).  On so(n) with symmetric Q, (QX + XQ, QXQ) satisfies the
    (R, rho) identities and the bunch correspondence (criterion 5).
    """
    regular = [check_outcome("regular", True)]
    coincide = [check_outcome("midpoint-bracket-coincidence", True)]
    bunch = [check_outcome("gamma-bunch", True), check_outcome("extraction-round-trip", True)]
    # (suite, flags, checks); example2-gl carries R1, R2, xi, R and rho,
    # example4-so carries R and rho only
    gl_suites = [
        ("myb", ("--operator", "R1"), ()),
        ("bi-myb", (), ()),
        ("even-tempered", (), ()),
        ("xi", ("--operator", "R1", "--operator2", "xi"), ()),
        ("r0-probe", (), coincide),
        ("rrho", (), regular),
        ("rrho+bunch", (), regular + bunch),
    ]
    so_suites = [("rrho", (), ()), ("rrho+bunch", (), bunch)]
    pairs = [(f"example2-gl{n}", suite) for n in (2, 3, 4) for suite in gl_suites]
    pairs += [(f"example4-so{n}", suite) for n in (3, 4, 5, 6) for suite in so_suites]
    expectation = {"example2-gl4": "bi-myb", "example4-so6": "rrho"}
    cycle = [_check(spec, suite, 0, *flags, checks=checks)
             for spec, (suite, flags, checks) in _with_q(rng, pairs, expectation)]
    # so(3) with R = diag(1, 0, 0), read from a file: the failing mYB witness
    # the acceptance tests assert
    cycle.append(_check(None, "myb", 1, route="file", file_name=SO3_PROJECTION[1],
                        checks=[check_outcome("myb", False, [1, 2], ["-1", "0", "0"])]))
    return Workload("lie-suites", cycle, [SO3_PROJECTION])


def triple_suites(rng: random.Random) -> Workload:
    """Triple-system suites, alternately from catalog: names and exported files.

    Expected answers: gl(n) with XYZ + ZYX is a JTS (catalog validation) on which
    ad_A acts as a derivation and the design condition holds (expand the
    associative products); on example3-gl, R1 and R2 are triple-mYB and the
    two-operator system is normal and even-tempered, and the rho identity with
    its derived transport holds (acceptance criterion 3).  On example1-so3
    both form-built triples satisfy the jacobson identity and fail the
    alternate one (test_jordan), and both operator readings fail triple mYB:
    Ra = projection onto e3 fails at X = Z = e3, Y = e1 (left side 0, right
    side -e1), Rb = ad_e3 fails at X = Z = e1, Y = e3.
    """
    bi = [check_outcome("normal", True), check_outcome("even-tempered", True)]
    transport = [check_outcome("rho-derived-transport", True)]
    alternate_fails = [check_outcome("jts-alternate", False)]
    triple_myb_fails = [check_outcome("triple-myb", False)]
    # (suite, exit code, flags, checks)
    operator_suites = [
        ("jordan-base", 0, (), ()),
        ("triple-myb", 0, ("--operator", "R1"), ()),
        ("triple-bi-myb", 0, (), bi),
        ("rho", 0, ("--operator2", "R1"), transport),
        ("equivariance", 0, (), ()),
        ("design", 0, (), ()),
    ]
    plain_suites = [("jordan-base", 0, (), ()), ("design", 0, (), ()), ("equivariance", 0, (), ())]
    form_suites = [("jordan-base", 0, (), alternate_fails), ("design", 0, (), ()), ("equivariance", 0, (), ())]
    pairs = [(f"example3-gl{n}", suite) for n in (2, 3, 4) for suite in operator_suites]
    expectation = {"example3-gl4": "triple-bi-myb"}
    specs = _with_q(rng, pairs, expectation)
    # gl(4) uses the catalog's own Q = diag(1, 2, 3, 4), so the heaviest
    # request of the workload does not swing with the seed
    specs = [(spec if "gl4" not in spec else "example3-gl4", suite) for spec, suite in specs]
    specs += [(f"gl{n}", suite) for n in (2, 3) for suite in plain_suites]
    specs += [(e, suite) for e in ("example1-so3", "example1-so3?triple=two-term") for suite in form_suites]
    specs += [("example1-so3", ("triple-myb", 1, ("--operator", r), triple_myb_fails)) for r in ("Ra", "Rb")]
    exports = []
    cycle = []
    for i, (spec, (suite, expect, flags, checks)) in enumerate(specs):
        # scans above a dimension guard (dim^5 above 8, dim^4 above 12) are forced
        flags = (*flags, "--force") if dimension(spec) > 8 else flags
        if i % 2 == 0:
            cycle.append(_check(spec, suite, expect, *flags, checks=checks))
            continue
        name = next((n for e, n, _ in exports if e == spec), None)
        if name is None:
            name = f"{len(exports):02d}-{spec.split('?')[0]}.json"
            exports.append((spec, name, None))
        cycle.append(_check(spec, suite, expect, *flags, route="file", file_name=name, checks=checks))
    return Workload("triple-suites", cycle, exports)


SEARCH_TRIALS = (4, 16)  # the same trial counts for every target


def search_sweep(rng: random.Random) -> Workload:
    """Seeded searches: many small arity-2/3 scans per process, large reports.

    Every (target, dimension) below runs at each of SEARCH_TRIALS, with three
    seeds each.  Searches are informational and exit
    0.  Known answers: the search header echoes target, seed and trials;
    so3-non-myb tries diag(1,0,0) first and it fails at (1, 2) with residual
    (-1, 0, 0) (acceptance criterion 8); the example4 summary reports rrho
    passed (criterion 5); every witness embeds an algebra of the searched
    dimension.
    """
    s = _Seeds(rng)
    # (target, --dim, finding-kind prefix, embedded dimension, main check span)
    targets = [
        ("so3-non-myb", None, "non-myb-operator", 3, "lie.check_myb_raw"),
        ("non-even-tempered", 2, "myb-but-not-even-tempered", 4, "lie.check_even_tempered"),
        ("non-even-tempered", 3, "myb-but-not-even-tempered", 9, "lie.check_even_tempered"),
        ("non-normal-triple", None, "triple-bi-myb-not-", 4, "jordan.check_triple_bi_myb"),
        ("triple-r-mode-disagreement", None, "derived-triple-mode-disagreement", 4, "core.tensors_equal_report"),
        ("r0-not-myb", 3, "midpoint-not-myb", 9, "lie.check_myb_raw"),
        ("example4-non-factorizable", None, "factorization-found", 3, "lie.check_bi_myb"),
    ]
    cycle = []
    for trials in SEARCH_TRIALS * 3:
        for target, dim, kind, embedded, main_check in targets:
            seed = s.seed()
            argv = ["search", target, "--seed", str(seed), "--trials", str(trials)]
            if dim is not None:
                argv += ["--dim", str(dim)]
            checks = [search_header(target, seed, trials), findings_embed_dim(kind, embedded)]
            if target == "so3-non-myb":
                checks.append(so3_projection_first)
            if target == "example4-non-factorizable":
                checks.append(factorization_summary(trials))
            cycle.append(
                Request(argv=argv, expect=0, checks=checks, route="search", trials=trials, main_check=main_check)
            )
    return Workload("search-sweep", cycle, [])


WORKLOADS = {
    "lie-suites": lie_suites,
    "triple-suites": triple_suites,
    "search-sweep": search_sweep,
}


def build(name: str, seed: int) -> Workload:
    """The workload's cycle; the same (name, seed) always gives the same requests."""
    return WORKLOADS[name](random.Random(f"{name}/{seed}"))
