"""One cold ``ditplan`` CLI call: ``cli_child.py [--trace-out FILE OP] ARGV...``.

Runs ``ditplan.cli.main(ARGV)`` and exits with its code (``python -m
ditplan.cli`` would do nothing: the module has no ``__main__`` guard).
With ``--trace-out`` the layer functions are wrapped and the spans of
the call are written to FILE as JSON.
"""

import sys


def main(argv: list[str]) -> int:
    if argv[:1] != ["--trace-out"]:
        from ditplan.cli import main as cli_main

        return cli_main(argv)

    import json

    from tracing import Tracer

    out, op, argv = argv[1], int(argv[2]), argv[3:]
    import ditplan.cli

    tracer = Tracer()
    tracer.install()
    tracer.begin_op(op)
    try:
        return ditplan.cli.main(argv)
    finally:
        tracer.end_op()
        tracer.uninstall()
        with open(out, "w") as handle:
            json.dump({"absent": tracer.absent, "spans": tracer.spans}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
