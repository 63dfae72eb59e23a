"""Start one program command (``repro ...``) with optional layer tracing.

    python3 perfbench/launch.py [--trace-out FILE] -- smb serve --port 0

With ``--trace-out`` the SMB and serving hooks of :mod:`spans` are
installed before the command runs, and the spans are written to FILE
when it returns (the serve commands return on SIGINT).
"""

from __future__ import annotations

import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main(argv: list) -> int:
    trace_out = ""
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    from repro.__main__ import main as repro_main

    # The serve commands stop on KeyboardInterrupt.  A shell starts
    # background jobs with SIGINT ignored, and Python then never raises
    # it, so restore the handler explicitly.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    if not trace_out:
        return repro_main(argv)
    import spans

    tracer = spans.Tracer().install(spans.smb_hooks, spans.serve_hooks)
    try:
        return repro_main(argv)
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
