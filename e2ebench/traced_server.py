"""``metacores serve`` with the layer wrappers installed, for traced runs.

``served.py`` starts it in place of ``python -m repro.cli serve``::

    python3 e2ebench/traced_server.py SUMMARY.json [serve arguments...]

It wraps the layer entry points (``layers.Instrumentation``) before the
server starts.  When the server stops, it writes the recorder's summary
and the registry counters the per-layer metrics read to SUMMARY.json.
"""

import json
import sys

from layers import COUNTERS, Instrumentation, Recorder


def main() -> int:
    summary_path, args = sys.argv[1], sys.argv[2:]
    from repro.cli import main as cli
    from repro.observability.metrics import get_registry

    recorder = Recorder()
    Instrumentation(recorder).install()
    try:
        return cli(["serve", *args])
    finally:
        snapshot = get_registry().snapshot()
        summary = recorder.summary()
        summary["counters"] = {
            name: snapshot.get(name, {}).get("value", 0.0) for name in COUNTERS
        }
        with open(summary_path, "w") as handle:
            json.dump(summary, handle)


if __name__ == "__main__":
    sys.exit(main())
