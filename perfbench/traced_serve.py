"""``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python perfbench/traced_serve.py REPORT.json serve --data-dir D ...``

Runs ``repro``'s own command-line entry point unchanged inside
:func:`tracing.patched`, so the traced service run records the same
per-layer spans as the in-process workloads.  When the server exits
(SIGTERM drains it) the per-layer report and the process cache sizes go
to ``REPORT.json`` and the raw spans to ``REPORT.spans.jsonl``.
"""

from __future__ import annotations

import json
import sys

from tracing import SpanRecorder, patched


def main(argv: list[str]) -> int:
    report_path, repro_argv = argv[0], argv[1:]
    from repro.__main__ import main as repro_main
    from repro.api import synthesis_cache_sizes

    recorder = SpanRecorder()
    with patched(recorder):
        code = repro_main(repro_argv)
    report = recorder.report()
    report["caches"] = synthesis_cache_sizes()
    recorder.write_spans(report_path.removesuffix(".json") + ".spans.jsonl")
    with open(report_path, "w", encoding="utf-8") as out:
        json.dump(report, out)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
