"""A long run of the random-formula differential tests, outside tier-1.

Tier-1 runs each check on one seed (tests/test_formula.py).  This script runs
both on many seeds:

- check_random_formulas: random formulas of arity 1-4 on the loop nest and on
  the joins, against the generated tree;
- check_random_orbits: random formulas of arity 2 and 3 symmetrized over a
  group, scanned one tuple per proven orbit on mirrored structures and in full
  on others, against the generated tree.

Run from the repository root, with the first seed and the number of seeds:

    python3 tests/long_differential.py 1 50

pytest does not collect this file, since its name does not start with test_.
"""

import os
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import test_formula  # noqa: E402


def main(argv) -> int:
    first, seeds = (int(a) for a in argv) if argv else (1, 20)
    start, formulas = time.perf_counter(), 0
    with tempfile.TemporaryDirectory() as prefix:
        sys.pycache_prefix = prefix  # the run's ad-hoc formulas are not cached beside the source
        for seed in range(first, first + seeds):
            arities = test_formula.check_random_formulas(seed, test_formula.RANDOM_COUNT)
            test_formula.check_random_orbits(seed, test_formula.ORBIT_COUNT)
            formulas += test_formula.RANDOM_COUNT + test_formula.ORBIT_COUNT
            print(f"seed {seed}: ok, arities {sorted(arities)}", flush=True)
    elapsed = time.perf_counter() - start
    print(f"{seeds} seeds, {formulas} formulas in {elapsed:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
