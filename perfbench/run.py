"""End-to-end benchmark of the ``pbsim`` command line.

    python3 perfbench/run.py --workload vis_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``, nothing needs installing).  ``--workload all`` runs the three
workloads one after another.

A run is a closed loop with one client: each operation is one ``pbsim`` call
in a fresh Python process on inputs generated from ``--seed``, and the next
starts when the previous one has ended and its outputs are checked.  The loop
starts another operation while at least half of a typical one still fits in
``--seconds``, so a run measures about ``--seconds`` on average.  BLAS
threads are pinned to min(2, nproc) for every process; ``PBS_BACKEND`` and
``PBS_THREADS`` are left as the caller set them, and the backend the program
chose is recorded.

With ``--trace 0`` the run prints the end-to-end metrics.  With ``--trace 1``
every other operation runs with layer spans (see ``spans.py``), and the run
prints the per-layer metrics, per operation.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a record with the environment, every generated input value and
every operation's samples goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(2, NPROC)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, reference_key  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
# setup_s is the median over the run's operations and import-only probes:
# a few before the first operation, then one after every operation, so the
# samples cover the whole run rather than its first seconds.
START_PROBES = 3
MIN_OPS = 2
OP_TIMEOUT_S = 90

# BENCHMARK.json names the metrics the final JSON line carries.  The others
# are printed and recorded but not bounded there.  failed_frac is 0 at a
# correct commit, and max_err is a fixed function of the seed that varies
# about tenfold between seeds; both gate ``correct`` instead.  op_p50_s
# jumps between the fast and slow phases of a shared host, and across 30 s
# runs it spread by more than any usable bound; items_per_s, a mean over
# the same operations, carries the operation time.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
REPORTED_ONLY = {"op_p50_s": "s", "max_err": "1", "failed_frac": "1"}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def environment(backend) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": "unknown"}
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip()
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": NPROC, "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas, "blas_threads": BLAS_THREADS,
        "kernels_backend": backend, "git_commit": commit,
        "source_sha256": src.hexdigest(),
    }


class Runner:
    """Spawns operations and checks their outputs for one workload and seed."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.work = STATE / "work" / f"{workload.name}-{seed}"
        self.cache_path = STATE / "cache" / f"{workload.name}-{seed}.json"
        # output hashes of this invocation only: a later commit may change
        # outputs on purpose, so they are never kept on disk
        self.hashes = {}
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    def spawn(self, flags, pbsim_args):
        """One child process; returns (exit code, report or None, stderr)."""
        report = self.work / "report.json"
        report.unlink(missing_ok=True)
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "op.py"), str(report), repr(t0), *flags,
             "--", *pbsim_args],
            env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=OP_TIMEOUT_S)
        data = json.loads(report.read_text()) if report.is_file() else None
        return proc.returncode, data, proc.stderr

    def probe(self) -> dict:
        """Spawn a child that only imports ``plasmon_biphoton.cli``."""
        rc, report, stderr = self.spawn(["--probe"], [])
        if rc != 0 or report is None:
            raise RuntimeError(f"cannot import plasmon_biphoton.cli from {ROOT / 'src'}:\n"
                               f"{stderr}")
        return report

    def prepare(self):
        """Generate inputs, load or compute references (outside timing)."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.ops = self.workload.generate(np.random.default_rng(self.seed),
                                          self.work / "inputs")
        self.references = {}
        if self.cache_path.is_file():
            self.references = json.loads(self.cache_path.read_text())
        self.keys = {op.name: reference_key(op) for op in self.ops}
        for op in self.ops:
            if self.keys[op.name] not in self.references:
                self.references[self.keys[op.name]] = self.workload.reference(op)
        self.cache_path.parent.mkdir(parents=True, exist_ok=True)
        self.cache_path.write_text(json.dumps(
            {k: self.references[k] for k in self.keys.values()}))

    def run_op(self, op, traced: bool) -> dict:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        flags = ["--trace"] if traced else []
        start = time.monotonic()
        try:
            rc, report, stderr = self.spawn(
                flags, [op.command, "--config", str(op.config), "--out", str(out)])
        except subprocess.TimeoutExpired:
            rc, report, stderr = None, None, f"timed out after {OP_TIMEOUT_S} s"
        record = {"op": op.name, "traced": traced, "wall_s": time.monotonic() - start,
                  "rc": rc, "max_err": None, "error": None}
        if report is not None:
            record.update(setup_s=report["imported"] - report["t0"], op_s=report["op_s"],
                          peak_rss_kb=report["peak_rss_kb"], backend=report["backend"])
        try:
            if rc != 0 or report is None:
                raise RuntimeError(f"exit code {rc}: {stderr.strip()[-400:]}")
            missing = [name for name in op.outputs if not (out / name).is_file()]
            if missing:
                raise RuntimeError(f"missing outputs {missing}")
            record["max_err"] = self.workload.check(op, out, self.references[self.keys[op.name]])
            if not record["max_err"] <= self.workload.tolerance:
                raise RuntimeError(f"max_err {record['max_err']:.3e} above "
                                   f"{self.workload.tolerance:g}")
            hashes = {name: _sha256(out / name) for name in op.outputs}
            known = self.hashes.setdefault(op.name, hashes)
            if known != hashes:
                raise RuntimeError("outputs differ from an earlier run of the same operation")
        except Exception:  # any failed check counts the operation as failed
            record["error"] = traceback.format_exc(limit=2).strip()
        if traced and report is not None:
            record["trace"] = {"spans": report.get("spans", []),
                               "absent": report.get("absent", [])}
        shutil.rmtree(out, ignore_errors=True)
        return record


def run(workload, seed: int, seconds: float, trace: bool) -> int:
    runner = Runner(workload, seed)
    t_prepare = time.monotonic()
    runner.prepare()
    prepare_s = time.monotonic() - t_prepare

    try:
        probes = [runner.probe() for _ in range(START_PROBES)]
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2

    records = []
    deadline = time.monotonic() + seconds
    while True:
        walls = [r["wall_s"] for r in records]
        if len(records) >= MIN_OPS and \
                time.monotonic() + 0.5 * statistics.median(walls) > deadline:
            break
        i = len(records)
        op = runner.ops[(i // 2 if trace else i) % len(runner.ops)]
        records.append(runner.run_op(op, traced=trace and i % 2 == 0))
        try:
            probes.append(runner.probe())
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 2

    done = [r for r in records if "op_s" in r and r["rc"] == 0]
    ok = [r for r in records if r["error"] is None]
    failed = len(records) - len(ok)
    for r in records:
        if r["error"]:
            print(f"FAILED {r['op']}: {r['error']}", file=sys.stderr)
    untraced = [r for r in done if not r["traced"]]
    # in a traced run each traced operation is followed by an untraced run
    # of the same op; trace.overhead_s is the median of their differences
    pairs = [(a, b) for a, b in zip(records[::2], records[1::2])
             if a in done and b in done]
    if not untraced or (trace and not pairs):
        print("too few operations completed; nothing to measure", file=sys.stderr)
        return 1

    op_s = [r["op_s"] for r in untraced]
    items = {op.name: op.items for op in runner.ops}
    checked = [r["max_err"] for r in records if r["max_err"] is not None]
    end_to_end = {
        "setup_s": statistics.median([p["imported"] - p["t0"] for p in probes]
                                     + [r["setup_s"] for r in done]),
        "op_p50_s": statistics.median(op_s),
        "items_per_s": sum(items[r["op"]] for r in untraced) / sum(op_s),
        "peak_rss_mb": max(r["peak_rss_kb"] for r in done + probes) / 1024.0,
        "max_err": max(checked) if checked else float("nan"),
        "failed_frac": failed / len(records),
    }
    samples = {"setup_s": len(probes) + len(done), "op_p50_s": len(op_s)}
    print(f"{workload.name} seed {seed}: {len(records)} operations "
          f"({len(untraced)} untraced) in {seconds:g} s, {failed} failed")
    for name, unit in {**END_TO_END, **REPORTED_ONLY}.items():
        note = f"  (n = {samples[name]})" if name in samples else ""
        print(f"  {name:<12} {end_to_end[name]:.6g} {unit}{note}")

    per_layer = None
    if trace:
        traced_reports = [r["trace"] for r in done if r["traced"]]
        traced_s = [r["op_s"] for r in done if r["traced"]]
        per_layer = spans.summarize(traced_reports)
        per_layer["trace.overhead_s"] = statistics.median(a["op_s"] - b["op_s"]
                                                          for a, b in pairs)
        op_time = statistics.fmean(traced_s)
        print(f"  per-layer, per traced operation (n = {len(traced_reports)}, "
              f"mean {op_time:.4g} s):")
        for name, unit in PER_LAYER.items():
            print(f"    {name:<26} {per_layer[name]:.6g} {unit}")
        shares = {layer: per_layer[f"{layer}.self_s"] / op_time for layer in spans.LAYERS
                  if f"{layer}.self_s" in per_layer}
        print("  self-time shares: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in
            sorted(shares.items(), key=lambda kv: -kv[1])))
        absent = sorted({a for t in traced_reports for a in t["absent"]})
        if absent:
            print(f"  absent from the package: {', '.join(absent)}")

    env = environment(next((r["backend"] for r in done), None))
    print(f"  environment: {json.dumps(env)}")
    record_path = STATE / "results" / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps({
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env, "prepare_s": prepare_s,
        "inputs": {op.name: {"values": op.values, "samples": op.samples,
                             "config_sha256": _sha256(op.config)} for op in runner.ops},
        "end_to_end": end_to_end, "per_layer": per_layer,
        "probes": probes,
        "operations": [{k: v for k, v in r.items() if k != "trace"} for r in records],
    }, indent=1))
    print(f"  record: {record_path.relative_to(ROOT)}")

    if trace:
        metrics = {k: {"value": per_layer[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": end_to_end[k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "plasmon_biphoton" / "cli.py").is_file():
        print(f"no plasmon_biphoton sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        rc = run(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        if rc:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
