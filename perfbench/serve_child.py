"""Service launcher: ``python3 perfbench/serve_child.py <root> <spans|->``.

Runs :class:`repro.serve.server.DiagnosisService` on an ephemeral port
of 127.0.0.1 until SIGTERM, with the tenant quota opened wide (the load
generator is a single tenant) and every other knob at its default.  It
prints ``serving on http://host:port`` once bound.  Given a spans path
instead of ``-``, the traced-run wrappers are installed first and the
spans are written there when the service has drained.
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path

from common import require_source


def main(root: str, spans: str) -> None:
    require_source()
    from repro.serve.server import DiagnosisService, ServiceConfig

    rec = None
    if spans != "-":
        from tracer import Recorder, install

        rec = Recorder()
        install(rec)
    config = ServiceConfig(root=Path(root), host="127.0.0.1", port=0,
                           quota_rate=1e9, quota_burst=1e9, announce=True)
    report = asyncio.run(DiagnosisService(config).run_async())
    if rec is not None:
        Path(spans).write_text(json.dumps(rec.export()))
    print(json.dumps(report.to_jsonable(), sort_keys=True), flush=True)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
