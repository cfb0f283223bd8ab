"""Run the ``serve`` daemon with the benchmark's span wrappers installed.

    python3 benchmarks/layered/serve_traced.py DUMP.json LABELS_JSON serve --shards 2 ...

Installs :func:`spans.installed`, then runs ``repro.experiments.cli.main``
with the remaining arguments.  When the daemon closes its fleet (on
SIGINT or ``--max-seconds``), the fleet's own spans are drained and
written to ``DUMP.json`` together with the wrapper spans, before the
workers stop.  ``LABELS_JSON`` maps query names to method labels.
"""

from __future__ import annotations

import json
import sys
from typing import Any

from spans import Recorder, event_dicts, installed


def main(argv: list[str]) -> int:
    dump, labels, cli_args = argv[0], argv[1], argv[2:]
    from repro.experiments import cli
    from repro.sharding.engine import ShardedStreamEngine

    rec = Recorder()
    rec.labels = json.loads(labels)
    close = ShardedStreamEngine.close

    def drain_then_close(fleet: Any) -> None:
        with rec.paused():
            groups = event_dicts(fleet.drain_spans())
        with open(dump, "w") as handle:
            json.dump({"spans": rec.dump(), "groups": groups}, handle)
        close(fleet)

    ShardedStreamEngine.close = drain_then_close  # type: ignore[method-assign]
    try:
        with installed(rec):
            return cli.main(cli_args)
    finally:
        ShardedStreamEngine.close = close  # type: ignore[method-assign]


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
