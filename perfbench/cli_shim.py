"""Run the ``fspt`` command line with the benchmark's tracer installed.

Usage: python3 perfbench/cli_shim.py SPANS_FILE <fspt arguments...>

The import of the package is recorded as a ``cli.import`` span; the spans
are written to SPANS_FILE when the command returns, and the exit code and
output are those of ``fspt.cli.run``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402  (standard library only)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    index = tracer.begin("cli.import")
    import fspt.cli

    tracer.end(index)
    tracer.install()
    tracer.active = True
    try:
        code = fspt.cli.run(argv)
    finally:
        tracer.active = False
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
