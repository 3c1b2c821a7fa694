"""Run one ``pbsim`` operation in this (fresh) process and report on it.

    python3 perfbench/op.py REPORT T0 [--trace | --probe] -- PBSIM_ARGS...

``T0`` is the parent's ``time.monotonic()`` just before it spawned this
process; ``imported`` in the report is the same clock once
``plasmon_biphoton.cli`` is imported, so the difference is the set-up time
every ``pbsim`` call pays.  ``--probe`` stops there.  Otherwise ``cli.main``
runs on the arguments after ``--``, timed from config parse to the last
output written; with ``--trace`` the layer functions are wrapped first and
the spans go into the report.  The exit code is that of ``cli.main``.
"""

import json
import sys
import time


def peak_rss_kb() -> int:
    """Peak resident set of this process image, in KiB (``VmHWM``).

    ``ru_maxrss`` is not used: Linux carries the parent's high-water mark
    across fork and exec into it, so it would report the benchmark's own
    memory.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM line in /proc/self/status")


def main(argv):
    report_path, t0, *flags = argv[:argv.index("--")]
    pbsim_args = argv[argv.index("--") + 1:]
    import plasmon_biphoton.cli as cli
    report = {"t0": float(t0), "imported": time.monotonic()}
    rc = 0
    if "--probe" not in flags:
        kernels = sys.modules.get("plasmon_biphoton.kernels")
        report["backend"] = getattr(kernels, "BACKEND", None)
        tracer = None
        if "--trace" in flags:
            import spans
            tracer = spans.Tracer()
            report["absent"] = tracer.install()
        start = time.perf_counter()
        rc = cli.main(pbsim_args)
        report["op_s"] = time.perf_counter() - start
        if tracer is not None:
            report["spans"] = tracer.spans
    report["rc"] = rc
    report["peak_rss_kb"] = peak_rss_kb()
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
