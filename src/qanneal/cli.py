"""Reproducible experiment runner.

Subcommands: generate, verify, sample, sweep, compare.  Every output embeds
the tool version, the resolved experiment configuration, and the seed; with
``--no-timestamp`` reruns with identical flags are byte-identical.  Execution
knobs (--out, --threads, --no-timestamp) are not part of the echoed config.
``--threads`` is accepted for compatibility but has no effect: every
command runs in one thread.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, baseline, circuit, ensemble
from .cost import (
    CostFunction,
    cost_from_dict,
    cost_to_dict,
    graph_from_dict,
    graph_partition_cost,
    graph_to_dict,
    normalized_all,
    random_graph,
    random_local_cost,
)
from .statevec import (
    CapExceededError,
    PhaseTable,
    apply_diagonal,
    build_phase_tables,
    max_amplitude_deviation,
    uniform_superposition,
)

PRODUCT_THRESHOLD = 1e-12
GATE_CLOSED_THRESHOLD = 1e-10
POSTSELECT_THRESHOLD = 1e-12
IDENTITY_THRESHOLD = 1e-9

SWEEP_COLUMNS = (
    "b",
    "t",
    "F",
    "U",
    "S",
    "C_eff",
    "C_eff_nor",
    "Delta",
    "accuracy",
    "P0b",
    "expected_repetitions",
    "checks",
)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _b_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad b list {text!r}") from exc
    if not values or any(v <= 0 for v in values):
        raise argparse.ArgumentTypeError("b list must contain positive numbers")
    return values


def _fmt(value) -> str:
    if value is None:
        return "nan"
    return f"{value:.17g}"


def _meta(command: str, seed: int, config: dict, args) -> dict:
    meta = {
        "tool": "qanneal",
        "version": __version__,
        "command": command,
        "seed": seed,
        "config": config,
    }
    if not args.no_timestamp:
        meta["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return meta


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, out: str | None):
    _emit(json.dumps(payload, indent=2) + "\n", out)


def load_instance(path: str) -> tuple[CostFunction, dict]:
    """Read a cost or graph instance file; graphs are expanded to their 2-local cost."""
    data = json.loads(Path(path).read_text())
    payload = data.get("instance", data)
    try:
        if "v" in payload:
            inst = graph_from_dict(payload)
            info = {"kind": "graph", "v": inst.v, "edges": len(inst.edges)}
            return graph_partition_cost(inst), info
        return cost_from_dict(payload), {"kind": "cost", "n": int(payload["n"])}
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path} is not a valid instance file: {exc}") from exc


# --- generate --------------------------------------------------------------


def cmd_generate(args) -> int:
    if args.kind == "graph":
        if args.v % 2:
            raise ValueError(f"vertex count must be even, got {args.v}")
        inst = random_graph(args.v, args.p, args.seed)
        inst = replace(inst, j=args.j, lam=args.lam)
        config = {"kind": "graph", "v": args.v, "p": args.p, "j": args.j, "lambda": args.lam}
        instance = graph_to_dict(inst)
    else:
        cost = random_local_cost(args.n, args.m, args.density, args.seed)
        config = {"kind": "cost", "n": args.n, "m": args.m, "density": args.density}
        instance = cost_to_dict(cost)
    payload = _meta("generate", args.seed, config, args)
    payload["instance"] = instance
    _emit_json(payload, args.out)
    return 0


# --- verify ----------------------------------------------------------------


def verification_report(cost: CostFunction, b: int, corrupt_phase: bool = False) -> list[dict]:
    """Gate-vs-closed-form, product-decomposition and post-selection checks.

    ``corrupt_phase`` deliberately perturbs one phase-table entry before the
    product check; it exists as a negative control for the exit-code contract.
    """
    checks = []

    tables = build_phase_tables(cost, sign=+1)
    if corrupt_phase:
        qubits, table = tables[0]
        phases = list(table.phases)
        phases[0] *= complex(math.cos(0.005), math.sin(0.005))
        tables[0] = (qubits, PhaseTable(tuple(phases)))
    state = uniform_superposition(cost.n, 0)
    for qubits, table in tables:
        state = apply_diagonal(state, qubits, table)
    expected = np.exp(0.5j * np.pi * normalized_all(cost)) / np.sqrt(1 << cost.n)
    checks.append(_check("product_decomposition", max_amplitude_deviation(state.amplitudes, expected), PRODUCT_THRESHOLD))

    gate = circuit.run_circuit(cost, b)
    closed = circuit.closed_form_final_state(cost, b)
    checks.append(_check("gate_vs_closed_form", max_amplitude_deviation(gate, closed), GATE_CLOSED_THRESHOLD))

    _, probability = circuit.postselect_zero(gate)
    residual = abs(probability - math.exp(ensemble.log_p0(cost, b)))
    checks.append(_check("postselection_probability", residual, POSTSELECT_THRESHOLD))
    return checks


def _check(name: str, residual: float, threshold: float) -> dict:
    return {
        "name": name,
        "residual": residual,
        "threshold": threshold,
        "pass": bool(residual < threshold),
    }


def cmd_verify(args) -> int:
    cost, info = load_instance(args.instance)
    checks = verification_report(cost, args.b, corrupt_phase=args.corrupt_phase)
    config = {"instance": info, "b": args.b, "corrupt_phase": args.corrupt_phase}
    payload = _meta("verify", args.seed, config, args)
    payload["checks"] = checks
    payload["pass"] = all(c["pass"] for c in checks)
    _emit_json(payload, args.out)
    return 0 if payload["pass"] else 1


# --- sample ----------------------------------------------------------------


def cmd_sample(args) -> int:
    cost, info = load_instance(args.instance)
    mode = {"gate": "gate_level", "closed": "closed_form"}[args.mode]
    outcomes = circuit.sample_many(
        cost,
        args.b,
        args.trials,
        args.seed,
        mode=mode,
        max_repetitions=args.max_repetitions,
        record_aborts=True,
    )
    successes = [o for o in outcomes if o is not None]
    counts = Counter(o.result for o in successes)
    exact = ensemble.boltzmann_distribution(cost, args.b)
    empirical = np.zeros_like(exact)
    for o in successes:
        empirical[int(o.result, 2)] += 1.0
    if successes:
        empirical /= len(successes)
    tv_distance = 0.5 * float(np.abs(empirical - exact).sum()) if successes else None
    p0b = float(math.exp(ensemble.log_p0(cost, args.b)))
    summary = {
        "trials": args.trials,
        "aborted_trials": sum(1 for o in outcomes if o is None),
        "p0b": p0b,
        "expected_repetitions": (1.0 / p0b) if p0b > 0.0 else math.inf,
        "mean_repetitions": (
            sum(o.repetitions for o in successes) / len(successes) if successes else None
        ),
        "tv_distance_to_exact": tv_distance,
        "empirical_distribution": {k: counts[k] for k in sorted(counts)},
    }
    config = {
        "instance": info,
        "b": args.b,
        "trials": args.trials,
        "mode": mode,
        "max_repetitions": args.max_repetitions,
    }
    payload = _meta("sample", args.seed, config, args)
    payload["summary"] = summary
    payload["samples"] = [
        (
            {
                "b": args.b,
                "mode": mode,
                "repetitions": o.repetitions,
                "result": o.result,
                "cost": o.cost_value,
                "seed": args.seed,
                "trial": i,
            }
            if o is not None
            else {
                "b": args.b,
                "mode": mode,
                "aborted": True,
                "max_repetitions": args.max_repetitions,
                "seed": args.seed,
                "trial": i,
            }
        )
        for i, o in enumerate(outcomes)
    ]
    _emit_json(payload, args.out)
    return 0


# --- sweep -----------------------------------------------------------------


def cmd_sweep(args) -> int:
    cost, info = load_instance(args.instance)
    points = ensemble.sweep(cost, args.b_list)
    c0, c_inf = ensemble.effective_cost_limits(cost)
    config = {"instance": info, "b_list": args.b_list}
    meta = _meta("sweep", args.seed, config, args)
    meta["c_0"] = c0
    meta["c_inf"] = c_inf
    meta["degenerate"] = any(p.degenerate for p in points)
    lines = ["# " + json.dumps(meta), ",".join(SWEEP_COLUMNS)]
    for point in points:
        identity_gap = abs(point.f - (point.u - point.t * point.s))
        checks = "ok" if identity_gap <= IDENTITY_THRESHOLD else f"identity_gap={identity_gap:.3e}"
        row = [
            _fmt(point.b),
            _fmt(point.t),
            _fmt(point.f),
            _fmt(point.u),
            _fmt(point.s),
            _fmt(point.c_eff),
            _fmt(point.c_eff_nor),
            _fmt(point.delta),
            _fmt(point.accuracy),
            _fmt(point.p0b),
            _fmt(point.expected_repetitions),
            checks,
        ]
        lines.append(",".join(row))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# --- compare ---------------------------------------------------------------


def cmd_compare(args) -> int:
    cost, info = load_instance(args.instance)
    sa_params = {"n_steps": args.sa_steps}
    if args.sa_t_start is not None:
        sa_params["schedule"] = (args.sa_t_start, args.sa_ratio, args.sa_t_end)
    record = baseline.compare_loads(cost, args.b, sa_params, args.trials, args.seed)
    argmin, vmin = baseline.brute_force_min(cost)
    per_trial = record["classical"]["per_trial"]
    record["classical"]["optimum_hit_fraction"] = (
        sum(1 for r in per_trial if r["best_cost"] <= vmin + 1e-9) / len(per_trial)
        if per_trial
        else None
    )
    config = {
        "instance": info,
        "b": args.b,
        "trials": args.trials,
        "sa_params": {k: list(v) if isinstance(v, tuple) else v for k, v in sa_params.items()},
    }
    payload = _meta("compare", args.seed, config, args)
    payload["ground_truth"] = {
        "min_cost": vmin,
        "argmin_count": len(argmin),
        "argmin": [format(i, f"0{cost.n}b") for i in argmin[:64]],
    }
    payload.update(record)
    _emit_json(payload, args.out)
    return 0


# --- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qanneal",
        description="Post-selected quantum-annealing simulator and analysis toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--seed", type=_nonneg_int, default=0, help="master seed (default 0)")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--threads", type=_positive_int, default=1,
                       help="accepted for compatibility; has no effect (one thread)")
        p.add_argument(
            "--no-timestamp",
            action="store_true",
            help="omit the timestamp field for byte-exact reproducibility",
        )

    gen = sub.add_parser("generate", help="write a reproducible instance file")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    gen_graph = gen_sub.add_parser("graph", help="random graph-partitioning instance")
    gen_graph.add_argument("--v", type=_positive_int, required=True, help="even vertex count")
    gen_graph.add_argument("--p", type=float, default=0.5, help="edge probability")
    gen_graph.add_argument("--j", type=float, default=1.0, help="coupling strength")
    gen_graph.add_argument("--lam", "--lambda", dest="lam", type=float, default=0.0,
                           help="balance penalty weight")
    common(gen_graph)
    gen_graph.set_defaults(func=cmd_generate, kind="graph")
    gen_cost = gen_sub.add_parser("cost", help="random k-local cost instance")
    gen_cost.add_argument("--n", type=_positive_int, required=True, help="bit count")
    gen_cost.add_argument("--m", type=_positive_int, required=True, help="max term arity")
    gen_cost.add_argument("--density", type=float, default=1.0, help="terms per bit")
    common(gen_cost)
    gen_cost.set_defaults(func=cmd_generate, kind="cost")

    ver = sub.add_parser("verify", help="gate-level vs closed-form verification")
    ver.add_argument("instance")
    ver.add_argument("--b", type=_positive_int, required=True, help="control qubits (>= 1)")
    ver.add_argument("--corrupt-phase", action="store_true",
                     help="negative-control hook: perturb one phase table entry")
    common(ver)
    ver.set_defaults(func=cmd_verify)

    smp = sub.add_parser("sample", help="repeat-until-success sampling runs")
    smp.add_argument("instance")
    smp.add_argument("--b", type=_positive_int, required=True)
    smp.add_argument("--trials", type=_nonneg_int, default=1000)
    smp.add_argument("--mode", choices=("gate", "closed"), default="closed")
    smp.add_argument("--max-repetitions", type=_positive_int,
                     default=circuit.DEFAULT_MAX_REPETITIONS)
    common(smp)
    smp.set_defaults(func=cmd_sample)

    swp = sub.add_parser("sweep", help="effective-thermodynamics sweep CSV")
    swp.add_argument("instance")
    swp.add_argument("--b-list", type=_b_list, required=True,
                     help="comma-separated positive b values, e.g. 1,2,4,8")
    common(swp)
    swp.set_defaults(func=cmd_sweep)

    cmp_ = sub.add_parser("compare", help="quantum vs simulated-annealing load comparison")
    cmp_.add_argument("instance")
    cmp_.add_argument("--b", type=float, required=True)
    cmp_.add_argument("--trials", type=_nonneg_int, default=20)
    cmp_.add_argument("--sa-steps", type=_positive_int, default=baseline.DEFAULT_N_STEPS)
    cmp_.add_argument("--sa-t-start", type=float, default=None)
    cmp_.add_argument("--sa-ratio", type=float, default=baseline.DEFAULT_RATIO)
    cmp_.add_argument("--sa-t-end", type=float, default=0.0)
    common(cmp_)
    cmp_.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"qanneal: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, circuit.RepetitionCutoffError) as exc:
        print(f"qanneal: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
