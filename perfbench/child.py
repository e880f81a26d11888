"""One fresh process of the benchmark: run one CLI invocation and report on it.

    python3 child.py <src-dir> run|trace '<argv as JSON>'
    python3 child.py <src-dir> parse '<list of argv as JSON>'
    python3 child.py <src-dir> probe '{}'

``run`` and ``trace`` time the import of ``hankelpert.cli`` (set-up) and the
``hankelpert.cli.main(argv)`` call, with the report captured in memory;
``trace`` also records spans (see layers.py). ``parse`` checks that every
argv parses (argparse exits 2 on a bad one) and stamps the environment.
``probe`` times the scaling probe. The result is one JSON line on stdout.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback


def _invoke(mode: str, argv: list) -> dict:
    started = time.perf_counter()
    import hankelpert.cli as cli
    setup_s = time.perf_counter() - started
    tracer = None
    if mode == "trace":
        from layers import Tracer
        tracer = Tracer()
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    result = {"setup_s": setup_s}
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        try:
            result["rc"] = cli.main(argv)
        except Exception:
            result["rc"] = None
            result["exception"] = traceback.format_exc(limit=4)
        result["op_s"] = time.perf_counter() - started
    result["stdout"] = out.getvalue()
    result["stderr"] = err.getvalue()[-2000:]
    if tracer is not None:
        result["spans"] = tracer.spans
        result["h_calls"] = tracer.h_calls
    return result


def _parse(argvs: list) -> dict:
    import importlib.metadata
    import platform

    import mpmath
    from hankelpert.cli import build_parser

    bad = []
    for argv in argvs:
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                build_parser().parse_args(argv)
        except SystemExit as exc:
            bad.append({"argv": argv, "exit": exc.code})
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    env = {"python": platform.python_version(), "mpmath": mpmath.__version__,
           "scipy": importlib.metadata.version("scipy"),
           "backend": mpmath.libmp.BACKEND, "nproc": len(os.sched_getaffinity(0)),
           "cpu": cpu}
    return {"bad": bad, "env": env}


def main() -> int:
    src, mode, payload = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
    sys.path.insert(0, src)
    if mode in ("run", "trace"):
        result = _invoke(mode, payload)
    elif mode == "parse":
        result = _parse(payload)
    elif mode == "probe":
        from layers import probe
        result = probe()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
