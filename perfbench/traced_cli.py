"""Run one pbent command in-process with layer spans recorded.

    python perfbench/traced_cli.py SPANS.json -- <pbent arguments>

Exits with the command's own exit code after writing the spans.
"""
from __future__ import annotations

import importlib
import sys

import tracing


def main() -> int:
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS.json -- <pbent arguments>")
    tracer = tracing.Tracer()
    cli = tracer.span("cli.import", importlib.import_module, "pbent.cli")
    tracing.install(tracer)
    code = tracer.span("cli.main", cli.main, argv)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
