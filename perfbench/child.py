"""Run one ``scatres`` command in this process with spans recorded.

Usage: ``python3 child.py SUMMARY.json OP_ID -- <scatres arguments>``

Times the import of ``scatres.cli`` and the command, writes the trace
summary to SUMMARY.json and exits with the command's exit code.  The traced
``cli`` workload runs each command through this script; the untraced one runs
``python -m scatres.cli`` directly.
"""

import json
import sys
import time
import traceback


def main() -> int:
    out_path, op_id = sys.argv[1], int(sys.argv[2])
    args = sys.argv[sys.argv.index("--") + 1:]
    t0 = time.perf_counter()
    import scatres.cli
    t1 = time.perf_counter()
    from tracer import Tracer

    tracer = Tracer()
    tracer.op = op_id
    tracer.install()
    code = 0
    try:
        scatres.cli.main(args=args, prog_name="scatres")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:  # an uncaught error ends the command as it would end the interpreter
        traceback.print_exc()
        code = 1
    t2 = time.perf_counter()
    tracer.uninstall()
    with open(out_path, "w") as fh:
        json.dump({"import_ms": 1e3 * (t1 - t0), "command_ms": 1e3 * (t2 - t1),
                   "spans": len(tracer.spans), "summary": tracer.summary()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
