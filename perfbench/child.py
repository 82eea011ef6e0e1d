"""One measured repetition, run in a fresh interpreter by ``run.py``.

Usage: ``python3 perfbench/child.py SPEC.json REPORT.json`` with the run
directory as working directory and ``src`` on ``PYTHONPATH``.  SPEC holds
``invocations`` (argv lists for ``isochron.cli.main``), ``preload`` (modules
the CLI would import lazily), ``trace`` and ``trace_path`` (where a traced
child writes its spans).  The child times the imports (set-up), then the
invocations in-process, and writes REPORT.
"""

from __future__ import annotations

import importlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stdout


def _speed_kernel() -> float:
    pairs = []
    for i in range(20_000):
        pairs.append(((i * 0.618033988749895) % 1.0, i))
    pairs.sort()
    return pairs[0][0]


def speed_probe(repeats: int = 7) -> float:
    """Median time of a fixed kernel that allocates and sorts small objects,
    as the workloads do: a reading of the host's current speed."""
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        _speed_kernel()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def main(spec_path: str, report_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)

    # Probed before the imports, so that the probe's memory stays below the
    # body's peak resident size.
    probe_before = speed_probe()
    t0 = time.perf_counter()
    import isochron.cli

    for name in spec["preload"]:
        importlib.import_module(name)
    setup_s = time.perf_counter() - t0

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    loaded = set(sys.modules)

    calls = []
    t_body = time.perf_counter()
    for argv in spec["invocations"]:
        out = io.StringIO()
        rc, error = None, None
        try:
            with redirect_stdout(out):
                rc = isochron.cli.main(argv)
        except SystemExit as exc:
            error = f"SystemExit({exc.code!r})"
        except Exception:
            error = traceback.format_exc()
        calls.append({"rc": rc, "error": error, "stdout": out.getvalue()})
    wall_s = time.perf_counter() - t_body
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "probe_s": (probe_before + speed_probe()) / 2,
        "peak_rss_mb": peak_rss_mb,
        "lazy_imports": sorted(
            m for m in set(sys.modules) - loaded if m.split(".")[0] in ("isochron", "scipy")
        ),
        "calls": calls,
    }
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = tracer.metrics()
        report["counts"] = tracer.deterministic_counts()
        report["spans"] = len(tracer.span_start)
        tracer.dump(spec["trace_path"])
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
