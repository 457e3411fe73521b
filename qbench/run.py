#!/usr/bin/env python3
"""qanneal benchmark: closed-loop CLI ops checked by an independent oracle.

Usage (from the repository root):

    python3 qbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs ops back to back.  Each op is a fresh interpreter
(``qbench/op.py``) that imports ``qanneal.cli`` from ``src/`` and times
``qanneal.cli.main(argv)``, on its own instance from ``qanneal generate
graph --p 0.5 --lam 1.0`` seeded by (workload seed, op index).  Ops continue
until their summed wall time reaches ``--seconds``.  The oracle checks every
op's output, untimed; a failing op is counted, never fatal.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each op
twice on the same instance, untraced and under the layer tracer, and prints
the per-layer metrics, including the tracer's own overhead.  The last
stdout line is the result JSON; a full report with provenance goes to
``.qbench/report-<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402  (after the thread environment is fixed)
from tracer import LAYERS, PER_LAYER_UNITS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END_UNITS = {
    "op_s_p50": "s",
    "wall_s_p50": "s",
    "setup_s": "s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MiB",
}
OP_TIMEOUT_S = 60.0
# No op starts after this much of a run has elapsed, so a run ends within 180 s.
LAST_START_S = 110.0
WARMUP_V = 6
WARMUP_INDEX = 2**31  # op-index stream of the warm-up instance, apart from real ops


@dataclass(frozen=True)
class Workload:
    """A graph size and the CLI commands one op runs on its instance.

    Commands are argv templates; ``{instance}`` and ``{seed}`` are filled
    per op, and every command also gets ``--threads 1``, ``--no-timestamp``
    and its own ``--out`` file.
    """

    name: str
    v: int
    commands: tuple[tuple[str, ...], ...]
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify_gate",
            14,
            (("verify", "{instance}", "--b", "4"),),
            "gate-level engine: verify at v=14, b=4 (18 qubits, 91 terms); statevec gates do most of the work",
        ),
        Workload(
            "sweep_enum",
            20,
            (("sweep", "{instance}", "--b-list", "1,2,4,8,16,32"),),
            "exhaustive enumeration: sweep at v=20 (2^20 states, 190 terms, 6 b values); cost table and ensemble dominate",
        ),
        Workload(
            "load_compare",
            12,
            (
                ("sample", "{instance}", "--b", "4", "--trials", "20000", "--mode", "closed", "--seed", "{seed}"),
                ("compare", "{instance}", "--b", "4", "--trials", "20", "--seed", "{seed}"),
            ),
            "load comparison: sample 20k closed-form trials then compare at v=12, b=4; per-trial Python work dominates",
        ),
    )
}


def derived_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


# --- provenance ------------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def provenance() -> dict:
    """Machine, toolchain and source identity of a run (read-only)."""
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), None)
    meminfo = _read("/proc/meminfo") or ""
    mem_total = next((line.split(":", 1)[1].strip() for line in meminfo.splitlines()
                      if line.startswith("MemTotal")), None)
    caches = []
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        fields = {k: (_read(str(index / k)) or "").strip() for k in ("level", "type", "size")}
        caches.append(fields)
    revision = None  # the checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        src_lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "mem_total": mem_total,
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        "src_lines": src_lines,
        "child_thread_env": THREAD_ENV,
    }


# --- one op ------------------------------------------------------------------


def spawn(argv: list[str], stdout: Path, stderr: Path) -> dict:
    """Run a child to completion; wall time from spawn to exit, rusage from wait4."""
    env = dict(os.environ, **THREAD_ENV)
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    spawned = time.monotonic()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    watchdog = threading.Timer(OP_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        watchdog.cancel()
    exited = time.monotonic()
    return {
        "spawned": spawned,
        "wall_s": exited - spawned,
        "code": os.waitstatus_to_exitcode(status),
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


class Runner:
    """Generates instances, runs ops and checks them, in one work directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        sys.path.insert(0, str(ROOT / "src"))
        import oracle
        import qanneal.cli

        self.cli = qanneal.cli
        self.oracle = oracle

    def op(self, workload: Workload, seed: int, index: int, trace: bool) -> dict:
        tag = f"op{index}{'t' if trace else ''}"
        instance = self.workdir / f"{tag}-instance.json"
        op_seed = derived_seed(seed, index)
        self.cli.main([
            "generate", "graph", "--v", str(workload.v), "--p", "0.5", "--lam", "1.0",
            "--seed", str(op_seed), "--no-timestamp", "--out", str(instance),
        ])
        commands, outs = [], []
        for k, template in enumerate(workload.commands):
            out = self.workdir / f"{tag}-out{k}"
            fill = {"instance": str(instance), "seed": str(op_seed)}
            commands.append([part.format(**fill) for part in template]
                            + ["--threads", "1", "--no-timestamp", "--out", str(out)])
            outs.append(out)
        result_path = self.workdir / f"{tag}-result.json"
        spec = {"src": str(ROOT / "src"), "commands": commands,
                "trace": trace, "result": str(result_path)}
        spec_path = self.workdir / f"{tag}-spec.json"
        spec_path.write_text(json.dumps(spec))
        process = spawn([sys.executable, str(HERE / "op.py"), str(spec_path)],
                        self.workdir / f"{tag}.stdout", self.workdir / f"{tag}.stderr")
        record = {"index": index, "seed": op_seed, "trace": trace, **process}
        problems = []
        try:
            child = json.loads(result_path.read_text())
        except (OSError, ValueError):
            child = None
            stderr = (self.workdir / f"{tag}.stderr").read_text()[-2000:]
            problems.append(f"op exited {process['code']} without a result: {stderr}")
        if child is not None:
            record["setup_s"] = child["first_call"] - process["spawned"]
            record["op_s"] = sum(c["seconds"] for c in child["calls"])
            record["calls"] = [{"command": c["argv"][0], "code": c["code"], "seconds": c["seconds"]}
                               for c in child["calls"]]
            for key in ("metrics", "layer_self_s", "spans"):
                if key in child:
                    record[key] = child[key]
            if process["code"] != 0 or len(child["calls"]) != len(commands):
                problems.append(f"op exited {process['code']}: {record['calls']}")
            else:
                try:
                    reference = self.oracle.Reference(json.loads(instance.read_text()))
                    for argv, out in zip(commands, outs):
                        problems += self.oracle.check_command(
                            reference, argv, str(out), child["probabilities"])
                except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
                    problems.append(f"output could not be checked: {exc!r}")
        if "metrics" in record:
            record["metrics"]["cli.output_bytes"] = sum(o.stat().st_size for o in outs if o.exists())
        record["problems"] = problems
        for path in self.workdir.glob(f"{tag}*"):
            path.unlink()
        return record


# --- a run -------------------------------------------------------------------


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(ops: list[dict]) -> dict:
    """Medians over the ops that passed (over all ops that ran, if none passed)."""
    timed = [o for o in ops if "op_s" in o and not o["problems"]] or [o for o in ops if "op_s" in o]
    if not timed:
        return {k: {"value": 0.0, "unit": unit} for k, unit in END_TO_END_UNITS.items()}
    values = {
        "op_s_p50": _median(o["op_s"] for o in timed),
        "wall_s_p50": _median(o["wall_s"] for o in timed),
        "setup_s": _median(o["setup_s"] for o in timed),
        "cpu_s_per_op": _median(o["cpu_s"] for o in timed),
        "peak_rss_mb": max(o["rss_mb"] for o in timed),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(ops: list[dict]) -> tuple[dict, list[str], dict]:
    """Median of each per-layer metric over the traced ops that called its layer.

    Returns (metrics, names of metrics no op produced, median self-time share
    of each layer).  A metric no op produced is reported as 0.
    """
    traced = [o for o in ops if o["trace"] and "metrics" in o]
    plain = [o for o in ops if not o["trace"] and "op_s" in o]
    metrics, absent = {}, []
    for name, unit in PER_LAYER_UNITS.items():
        if name == "trace.overhead_frac":
            traced_s, plain_s = _median(o["op_s"] for o in traced), _median(o["op_s"] for o in plain)
            value = traced_s / plain_s - 1.0 if traced_s and plain_s else None
        else:
            value = _median(o["metrics"].get(name) for o in traced)
        if value is None:
            absent.append(name)
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    shares = {layer: _median(o["layer_self_s"][layer] / o["op_s"] for o in traced) for layer in LAYERS}
    return metrics, absent, shares


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Closed-loop ops until their wall time sums to ``seconds``; returns (result, report)."""
    out_dir = ROOT / ".qbench"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    try:
        runner = Runner(workdir)
        # untimed warm-up: byte-compiles the package and fills the file cache
        runner.op(replace(workload, v=WARMUP_V), seed, WARMUP_INDEX, False)
        ops, measured, index = [], 0.0, 0
        while measured < seconds and time.monotonic() - started < LAST_START_S:
            # a traced run alternates which of the pair goes first, so that an
            # order effect does not bias trace.overhead_frac
            pair = (False, True) if index % 2 == 0 else (True, False)
            for traced in (pair if trace else (False,)):
                record = runner.op(workload, seed, index, traced)
                ops.append(record)
                measured += record["wall_s"]
                print(f"{workload.name} op {index}{' traced' if traced else ''}: "
                      f"wall {record['wall_s']:.3f} s, problems {record['problems']}", file=sys.stderr)
            index += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(1 for o in ops if o["problems"])
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed}
    report = {"workload": workload.name, "v": workload.v, "seed": seed, "seconds": seconds,
              "trace": trace, "fail_frac": failed / len(ops), "provenance": provenance()}
    if trace:
        result["metrics"], report["absent"], report["layer_self_share"] = per_layer(ops)
    else:
        result["metrics"] = end_to_end(ops)
    report["result"] = result
    report["ops"] = ops
    report_path = out_dir / f"report-{workload.name}-seed{seed}-trace{int(trace)}.json"
    report_path.write_text(json.dumps(report, indent=1))
    return result, report


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=_nonneg_int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qanneal" / "cli.py").is_file():
        print(f"qbench: no qanneal sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    result, report = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"provenance": report["provenance"], "fail_frac": report["fail_frac"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
