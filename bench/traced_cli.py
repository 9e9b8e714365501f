"""Run one clusterexp CLI command with the benchmark's tracer installed.

    python3 bench/traced_cli.py <spans.json> <clusterexp arguments...>

Behaves like ``python -m clusterexp.cli <arguments...>`` (same output, same
exit status) and writes the spans of the command to ``<spans.json>``.
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    spans_path, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.phase = "pass"
    from clusterexp import cli

    tracer.install()
    try:
        code = cli.main(args)
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
