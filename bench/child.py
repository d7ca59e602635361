"""One benchmark repetition: import forrlab.cli, then run cli.main once.

Usage: python3 child.py RESULT_JSON SPANS_JSON|- [FORRLAB_ARGS...]

Writes {"imported_at", "module", "numpy"} to RESULT_JSON, where imported_at
is time.monotonic() right after ``import forrlab.cli``; the parent
subtracts its own monotonic spawn time to get the set-up time.  Without
FORRLAB_ARGS that is all it does.  With them it also records "wall_s", the
time spent in cli.main, and exits with the code cli.main returned.  With a
SPANS_JSON path the call runs under the layer tracer, which is installed
after the import and removed before the spans are written.
"""

import sys
import time

import forrlab.cli as cli

IMPORTED_AT = time.monotonic()


def main() -> int:
    import json

    import numpy

    result_path, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    info = {"imported_at": IMPORTED_AT, "module": cli.__file__,
            "numpy": numpy.__version__}
    code = 0
    if argv:
        tracer = None
        if spans_path != "-":
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        finally:
            info["wall_s"] = time.perf_counter() - start
            if tracer is not None:
                tracer.dump(spans_path, tracer.uninstall())
    with open(result_path, "w") as fh:
        json.dump(info, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
