"""Run one opalg CLI request in this fresh process and record how it went.

Usage: python3 -I child.py ROOT RECORD TRACE ARG...

Puts ROOT/src first on sys.path, times ``import opalg.cli``, runs
``opalg.cli.main(ARG...)`` and writes a JSON record to RECORD.  With TRACE=1
the whole request, import included, runs under the tracer in tracing.py.
The process exits with the CLI's exit code; an uncaught exception exits 1,
as the installed console script would, and is flagged in the record.
"""

import json
import os
import sys
import time
import traceback


def main() -> int:
    root, record_path, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    sys.path.insert(0, os.path.join(root, "src"))
    tracer = None
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracing import Tracer

        tracer = Tracer(root)
        tracer.start()
    started = time.perf_counter()
    import opalg.cli

    record = {"import_s": time.perf_counter() - started, "crash": None}
    if tracer is not None:
        tracer.instrument()
    try:
        code = opalg.cli.main(sys.argv[4:])
    except Exception:  # a crash must not pass for a failed check
        record["crash"] = traceback.format_exc(limit=-3)
        code = 1
    if tracer is not None:
        record["trace"] = tracer.finish()
    from opalg import scalars

    record["exit"] = code
    record["opalg_file"] = os.path.realpath(opalg.__file__)
    record["backend"] = "gmpy2" if scalars._ratio.__module__.startswith("gmpy2") else "Fraction"
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
