"""Run one beambvp CLI command with spans around every layer.

    python bench/child.py SPANS.npz solve --f "u^2" --a "t" --out DIR

The traced counterpart of `python -m beambvp ...` for the cli-cold workload:
it installs the tracer after import, runs the command, writes the spans to
SPANS.npz and exits with the command's exit code.
"""

import sys

import beambvp.cli
from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.begin(0)
    try:
        return beambvp.cli.main(argv)
    finally:
        tracer.end()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
