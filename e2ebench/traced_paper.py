"""Run ``ccrp-experiments`` in this process with spans around every layer.

Usage (``src`` on ``PYTHONPATH``)::

    python3 e2ebench/traced_paper.py SPANS.json -- <ccrp-experiments arguments>

The spans stay in memory while the experiments run and are written to
``SPANS.json`` when they finish.  The root span ``experiments.main``
covers the harness's ``main``; interpreter start-up and imports fall
outside it and count as unattributed time.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import spans


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    from repro.experiments import runner

    tracer = spans.Tracer()
    spans.install(tracer)
    root = tracer.begin("experiments.main")
    try:
        code = runner.main(argv[2:])
    finally:
        tracer.end(root)
    Path(argv[0]).write_text(json.dumps([dataclasses.asdict(span) for span in tracer.spans]))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
