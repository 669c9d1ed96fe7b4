"""Traced ``cylreact`` command line: the CLI's own ``main`` with the
benchmark's span wrappers installed, spans written to a JSON file.

    python3 benchmark/cli_child.py <spans.json> run <config.json>
    python3 benchmark/cli_child.py <spans.json> verify-all

Used for the traced pass of the cli workload only; untraced ops run
``python -m cylreact`` directly.
"""

import json
import sys

from tracing import Tracer

tracer = Tracer()
with tracer.span("cli.import", "cli"):
    import cylreact.cli

with tracer.installed():
    try:
        code = cylreact.cli.main(sys.argv[2:])
    finally:
        with open(sys.argv[1], "w") as fh:
            json.dump(tracer.spans, fh)
sys.exit(code)
