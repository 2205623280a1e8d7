"""One fresh interpreter: import hedgenet.cli, optionally run one command.

    python3 child.py RESULT_JSON [--trace SPANS_JSON] [-- CLI_ARGS...]

Writes to RESULT_JSON the monotonic clock reading right after the import
(the parent subtracts its spawn time to get the set-up time), the in-process
import time, and for a command its exit code, wall time, CPU time and peak
RSS. Without CLI_ARGS the interpreter only imports (a set-up sample). With
--trace the layer boundaries are wrapped (see tracer.py) and the spans are
written to SPANS_JSON at the end.
"""

import json
import resource
import sys
import time


def _rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv):
    result_path, rest = argv[0], argv[1:]
    spans_path = None
    if rest[:1] == ["--trace"]:
        spans_path, rest = rest[1], rest[2:]
    cli_args = rest[1:] if rest[:1] == ["--"] else rest

    t0 = time.perf_counter()
    import hedgenet.cli as cli
    rec = {
        "imported_at": time.monotonic(),
        "import_s": time.perf_counter() - t0,
        "rss_after_import_mb": _rss_mb(),
    }
    rc = 0
    if cli_args:
        run = cli.main
        tracer = None
        if spans_path is not None:
            import tracer as tracing

            tracer = tracing.Tracer()
            run = tracer.span("cli.main", tracing.install(tracer))
        cpu0 = _cpu_s()
        t1 = time.perf_counter()
        rc = run(cli_args)
        rec["wall_s"] = time.perf_counter() - t1
        rec["cpu_s"] = _cpu_s() - cpu0
        rec["peak_rss_mb"] = _rss_mb()
        rec["rc"] = rc
        if tracer is not None:
            tracer.dump(spans_path)
    with open(result_path, "w") as f:
        json.dump(rec, f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
