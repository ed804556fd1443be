"""Run one fertgames CLI command with spans, for the traced cli_session.

Usage: traced_cli.py SPANS_FILE ARGS...  (with ``src`` on PYTHONPATH)

Runs ``fertgames.cli.run_command(ARGS)`` with the tracer installed, writes
the spans to SPANS_FILE and exits with the command's exit code.
"""

import sys

import fertgames.cli as cli

from tracing import Tracer

tracer = Tracer()
tracer.install()
try:
    code = cli.run_command(sys.argv[2:])
finally:
    tracer.write(sys.argv[1])
sys.exit(code)
