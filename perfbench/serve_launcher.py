"""Traced ``bfl serve``: install the span wrappers, then run the CLI.

Usage: ``python3 perfbench/serve_launcher.py SPANS_PATH serve [ARGS...]``

The wrappers come from ``tracing.Tracer.install``; the server itself is
the unmodified ``repro.cli.main(["serve", ...])``.  After the drain that
SIGTERM starts, the spans are written to ``SPANS_PATH``.
"""

from __future__ import annotations

import sys

from repro.cli import main as cli_main

from tracing import Tracer


def main(argv: list) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer().install()
    try:
        return cli_main(cli_args)
    finally:
        tracer.uninstall()
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
