"""torusbundles benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The inputs are generated from the seed
by this directory's own code; the program under test is imported from
``src`` in fresh interpreters (worker.py), one per pass, so no cache
carries over from one pass to the next.

With --trace 0 a run makes timed passes over the same op list for S
seconds: it starts no pass that the last one's length says would end
past S, and makes at least three.  Between ops the worker moves to the
CPU on which a short loop runs fastest at that moment.  Each op's latency
is its best over the passes, so a slow spell of the host moves the
figures only if it covers every pass of an op.  From those latencies:

  ops_per_s     ops divided by the sum of their latencies (one client, closed loop)
  op_p50_ms     median op latency
  op_tail_ms    the 11th-largest op latency: the highest percentile with 10 ops beyond it
  setup_s       median time to import torusbundles and torusbundles.cli, over the
                passes and one set-up-only interpreter before each pass
  peak_rss_mib  median over the passes of ru_maxrss of the process that ran the ops
                (for cli-subprocess, the largest of its children)

With --trace 1 the run instead reports per-layer metrics: untraced and
traced passes alternate to measure the tracing overhead, one pass times
every component call of the ops on its own, and two fixed probes follow
(the ROADMAP Baseline ladder and the CLI split).  Spans are written to
.perfbench/trace-<workload>-seed<N>.json.

Every op's output is checked against reference.py after the clock stops.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from math import log
from pathlib import Path

import inputs as gen
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("classify-mixed", "sw-parity-grid", "sw-large-modulus", "cli-subprocess")
MIN_PASSES = 3
OVERHEAD_PASSES = 2  # untraced and traced passes each, alternating
TAIL_BEYOND = 10
WORKER_TIMEOUT_S = 170
# every stride-th op is decomposed in the traced run
DECOMPOSE_STRIDE = {"classify-mixed": 2, "sw-parity-grid": 8, "sw-large-modulus": 1, "cli-subprocess": 0}

FUNCTIONS = (
    "bundle.parse_bundle",
    "bundle.fixed_sublattice",
    "bundle.surface_relation_holds",
    "exactla.rank",
    "exactla.cokernel_structure",
    "exactla.integer_kernel",
    "exactla.snf",
    "homology.h1_total_space",
    "homology.betti",
    "spectral.fox_boundary_matrices",
    "spectral.e2_ranks",
    "spectral.fiber_class_via_spectral",
    "classify.is_symplectic",
    "swcalc.sw_poly_circle_bundle",
    "swcalc.fold_product_poly",
    "swcalc.cyclic_subgroup",
    "swcalc.sw4_zero_coset",
    "swcalc.sw4_zero_closed",
    "swcalc.parity_sweep",
)
GENUS_LADDER = ("g2", "g20", "g100")
MODULUS_LADDER = ("n61", "n121", "n241")
GENUS_LADDER_FUNCTIONS = (
    "classify.is_symplectic",
    "bundle.fixed_sublattice",
    "homology.betti",
    "homology.h1_total_space",
    "spectral.fox_boundary_matrices",
    "spectral.e2_ranks",
    "spectral.fiber_class_via_spectral",
    "exactla.rank",
    "exactla.cokernel_structure",
    "exactla.integer_kernel",
    "exactla.snf",
)
MODULUS_LADDER_FUNCTIONS = (
    "swcalc.cyclic_subgroup",
    "swcalc.sw4_zero_coset",
    "swcalc.sw4_zero_closed",
    "swcalc.fold_product_poly",
)
CLI_COMMANDS = ("classify", "homology", "spectral", "swpoly", "sw0", "verify-parity")
BASELINE = "ROADMAP Baseline: is_symplectic 0.63 / 17.9 / 454 ms; cyclic_subgroup cubic; sweep 3.7 s"


class BenchError(Exception):
    pass


def machine_probe() -> float:
    """A fixed pure-Python loop; context for the host's speed, not a gate."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return time.perf_counter() - start


# --- inputs and checks -----------------------------------------------------------


def build_inputs(workload: str, seed: int, tmp: Path) -> tuple[dict, dict]:
    """(what the worker receives, what the checks need), both from the seed alone."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "classify-mixed":
        ops = gen.classify_inputs(rng)
        expected = [reference.expected_classification(op["genus"], op["mats"], op["euler"]) for op in ops]
        print(f"# histogram {json.dumps(gen.classify_histogram(ops))}")
        return {"ops": [{"text": op["text"]} for op in ops]}, {"expected": expected}
    if workload == "sw-large-modulus":
        ops = gen.sw_large_inputs(rng)
        parities = sorted({("even" if op["n"] % 2 == 0 else "odd") + ("-m-odd" if op["m"] % 2 else "") for op in ops})
        print(f"# cells {len(ops)}, |n| {min(abs(op['n']) for op in ops)}-{max(abs(op['n']) for op in ops)}, kinds {parities}")
        return {"ops": ops}, {}
    if workload == "sw-parity-grid":
        rows, cells = gen.grid_inputs(rng)
        print(f"# rows {len(rows)} (g {gen.GRID_GENUS.start}..{gen.GRID_GENUS.stop - 1}, m != 0, n in {gen.GRID_MN}), {len(cells)} spot-checked cells")
        return {"ops": rows, "n_values": list(gen.GRID_MN), "sample_cells": cells}, {}
    ops = gen.cli_inputs(rng)
    paths = {}
    for op in ops:
        if "bundle" in op:
            text = json.dumps(op["bundle"])
            if text not in paths:
                paths[text] = tmp / f"bundle-{len(paths)}.json"
                paths[text].write_text(text)
            op["argv"] = gen.cli_argv(op, str(paths[text]))
        else:
            op["argv"] = gen.cli_argv(op, None)
    print(f"# commands {sorted({op['command'] for op in ops})} x text/json, {len(paths)} bundle files")
    return {"ops": ops}, {}


def check_pass(workload: str, inputs: dict, refs: dict, result: dict) -> list[str | None]:
    """One reason per failed op, None per op whose output is right."""
    outputs, extra = result["outputs"], result["extra"]
    ops = inputs["ops"]
    bad_pairs = {}
    for g, n, direct, folded in extra.get("polys", []):
        reason = reference.check_poly_pair(g, n, direct, folded)
        if reason:
            bad_pairs[(g, n)] = reason
    if workload == "classify-mixed":
        return [reference.check_classify(want, got) for want, got in zip(refs["expected"], outputs)]
    if workload == "sw-large-modulus":
        return [
            reference.check_sw0(op["g"], op["m"], op["n"], got) or bad_pairs.get((op["g"], op["n"]))
            for op, got in zip(ops, outputs)
        ]
    if workload == "sw-parity-grid":
        bad_rows = {}
        for g, m, n, got in extra["cells"]:
            reason = reference.check_sw0(g, m, n, got)
            if reason:
                bad_rows[(g, m)] = f"cell ({g}, {m}, {n}): {reason}"
        bad_genus = {g: reason for (g, _), reason in bad_pairs.items()}
        return [
            reference.check_sweep_row(op["m"], inputs["n_values"], got)
            or bad_rows.get((op["g"], op["m"]))
            or bad_genus.get(op["g"])
            for op, got in zip(ops, outputs)
        ]
    return [reference.check_cli(op, got, lib) for op, got, lib in zip(ops, outputs, extra["library"])]


# --- passes --------------------------------------------------------------------


def run_worker(job: dict, tmp: Path, env: dict) -> dict:
    job = {**job, "root": str(ROOT), "out": str(tmp / f"result-{job['tag']}.json")}
    job_path = tmp / f"job-{job['tag']}.json"
    job_path.write_text(json.dumps(job))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(job_path)],
        cwd=ROOT,
        env=env,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {job['mode']} exited {proc.returncode}")
    return json.loads(Path(job["out"]).read_text())


class Counts:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, reasons):
        self.attempted += len(reasons)
        bad = [(i, r) for i, r in enumerate(reasons) if r]
        self.failed += len(bad)
        self.reasons.extend(bad[:3])


def timed_metrics(workload: str, passes: list[dict], setup: list[float]) -> tuple[dict, str]:
    count = len(passes[0]["latencies"])
    per_op = [min(p["latencies"][i] for p in passes) for i in range(count)]
    if count <= TAIL_BEYOND:
        raise BenchError(f"{count} ops is too few for a tail with {TAIL_BEYOND} beyond it")
    tail = sorted(per_op)[count - TAIL_BEYOND - 1]
    rss_key = "children_maxrss_kib" if workload == "cli-subprocess" else "maxrss_kib"
    metrics = {
        "ops_per_s": (count / sum(per_op), "1/s"),
        "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (statistics.median(p[rss_key] for p in passes) / 1024, "MiB"),
    }
    note = (
        f"op_tail_ms is p{100 * (count - TAIL_BEYOND) / count:.2f} of {count} ops "
        f"({TAIL_BEYOND} beyond), each op the best of {len(passes)} passes; "
        f"one pass of all ops takes {sum(per_op):.3f} s"
    )
    return metrics, note


def timed_run(workload, worker_inputs, refs, seconds, tmp, env, counts):
    """Passes until the next one would end past the deadline, at least MIN_PASSES."""
    passes, setup = [], []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        pass_start = time.perf_counter()
        # a set-up-only interpreter doubles the set-up samples
        setup.append(run_worker({"mode": "setup", "tag": "setup"}, tmp, env)["setup_s"])
        job = {"workload": workload, "mode": "plain", "inputs": worker_inputs, "tag": f"plain{len(passes)}"}
        result = run_worker(job, tmp, env)
        counts.add(check_pass(workload, *refs, result))
        passes.append(result)
        setup.append(result["setup_s"])
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and now + (now - pass_start) > deadline:
            break
    return timed_metrics(workload, passes, setup)


# --- traced run --------------------------------------------------------------------


def _spans(result):
    return [dict(zip(("name", "start", "end", "parent", "op"), s)) for s in result.get("spans", [])]


def _best_rep(spans, name, prefix):
    """Best over reps of the summed duration of `name` spans whose op id starts with prefix."""
    per_rep = {}
    for s in spans:
        if s["name"] == name and s["op"].startswith(prefix):
            per_rep[s["op"]] = per_rep.get(s["op"], 0.0) + s["end"] - s["start"]
    return min(per_rep.values())


def _coverage(passes, prefix=""):
    """(covered, whole) per op: is_symplectic's time, and the part of it that
    its components, each timed on its own, account for."""
    out = []
    for spans in passes:
        children = {}
        for s in spans:
            children[s["parent"]] = children.get(s["parent"], 0.0) + s["end"] - s["start"]
        whole, covered = {}, {}
        for index, s in enumerate(spans):
            if s["op"] is None or not s["op"].startswith(prefix):
                continue
            if s["name"] == "classify.is_symplectic":
                whole[s["op"]] = whole.get(s["op"], 0.0) + s["end"] - s["start"]
            elif s["name"] == "components":
                covered[s["op"]] = covered.get(s["op"], 0.0) + children.get(index, 0.0)
        out.extend((covered[op], whole[op]) for op in covered)
    return out


def traced_metrics(passes: dict, setup_samples: list[float], probe_s: float, pass_s: dict) -> dict:
    metrics = {}
    layer_results = [passes["decompose"], passes["ladder"], passes["cliprobe"]]
    all_spans = [_spans(r) for r in layer_results]
    flat = [s for spans in all_spans for s in spans]
    for name in FUNCTIONS:
        mine = [s for s in flat if s["name"] == name]
        metrics[f"{name}.calls"] = (len(mine), "count")
        metrics[f"{name}.busy_s"] = (sum(s["end"] - s["start"] for s in mine), "s")

    sizes = [r["sizes"] for r in layer_results]
    metrics["exactla.matrices"] = (sum(s["matrices"] for s in sizes), "count")
    metrics["exactla.cells"] = (sum(s["cells"] for s in sizes), "count")
    metrics["exactla.max_rows"] = (max(s["max_rows"] for s in sizes), "count")
    metrics["exactla.max_cols"] = (max(s["max_cols"] for s in sizes), "count")
    metrics["exactla.max_entry_bits"] = (max(s["max_entry_bits"] for s in sizes), "bits")
    stored = sum(s["stored_terms"] for s in sizes)
    nonzero = sum(s["nonzero_terms"] for s in sizes)
    metrics["swcalc.poly.stored_terms"] = (stored, "count")
    metrics["swcalc.poly.nonzero_terms"] = (nonzero, "count")
    metrics["swcalc.poly.useful_frac"] = (nonzero / stored, "ratio")

    decompose_spans, ladder_spans, cli_spans = all_spans
    coverage = _coverage([decompose_spans, ladder_spans])
    unexplained = 1.0 - sum(c for c, _ in coverage) / sum(w for _, w in coverage)
    metrics["classify.unexplained_frac"] = (unexplained, "ratio")

    metrics["cli.import_s"] = (statistics.median(setup_samples), "s")
    measured = [s for s in cli_spans if not s["op"].endswith(":0")]
    for command in CLI_COMMANDS:
        run = _best_rep(measured, f"cli.run.{command}", f"cli:{command}:")
        library = _best_rep(measured, f"cli.library.{command}", f"cli:{command}:")
        metrics[f"cli.run.{command}.busy_s"] = (run - library, "s")

    # traced minus untraced time of one pass, each the sum of the ops' best passes
    metrics["trace.overhead_s"] = (pass_s["optrace"] - pass_s["plain"], "s")
    metrics["trace.overhead_frac"] = (pass_s["optrace"] / pass_s["plain"] - 1.0, "ratio")
    metrics["machine.probe_s"] = (probe_s, "s")

    for point in GENUS_LADDER:
        value = _best_rep(ladder_spans, "classify.is_symplectic", f"ladder:{point}:")
        metrics[f"ladder.is_symplectic.{point}_ms"] = (value * 1e3, "ms")
    for point in MODULUS_LADDER:
        value = _best_rep(ladder_spans, "swcalc.cyclic_subgroup", f"ladder:{point}:")
        metrics[f"ladder.cyclic_subgroup.{point}_ms"] = (value * 1e3, "ms")
    # median over reps, so one rep that a slow spell hit does not decide it
    per_rep = [1.0 - c / w for c, w in _coverage([ladder_spans], "ladder:g100:")]
    metrics["ladder.classify.unexplained_frac_g100"] = (statistics.median(per_rep), "ratio")
    for ladder, functions in ((GENUS_LADDER, GENUS_LADDER_FUNCTIONS), (MODULUS_LADDER, MODULUS_LADDER_FUNCTIONS)):
        lo, hi = ladder[-2], ladder[-1]
        for name in functions:
            t_lo = _best_rep(ladder_spans, name, f"ladder:{lo}:")
            t_hi = _best_rep(ladder_spans, name, f"ladder:{hi}:")
            growth = log(t_hi / t_lo) / log(int(hi[1:]) / int(lo[1:]))
            metrics[f"ladder.{name}.growth_exp"] = (growth, "exponent")
    return metrics


def traced_run(workload, worker_inputs, refs, seed, tmp, env, counts, probe_s):
    passes = {}
    latencies = {"plain": [], "optrace": []}
    setup_samples = []
    for rep in range(OVERHEAD_PASSES):
        for mode in ("plain", "optrace"):
            job = {"workload": workload, "mode": mode, "inputs": worker_inputs, "tag": f"{mode}{rep}"}
            result = run_worker(job, tmp, env)
            counts.add(check_pass(workload, *refs, result))
            latencies[mode].append(result["latencies"])
            setup_samples.append(result["setup_s"])
            passes[f"{mode}{rep}"] = result
    pass_s = {mode: sum(min(op) for op in zip(*runs)) for mode, runs in latencies.items()}
    for mode in ("decompose", "ladder", "cliprobe"):
        job = {
            "workload": workload,
            "mode": mode,
            "inputs": worker_inputs if mode != "cliprobe" else refs[1]["cli_inputs"],
            "tag": mode,
            "stride": DECOMPOSE_STRIDE[workload],
        }
        result = run_worker(job, tmp, env)
        if mode == "decompose":
            counts.add(check_pass(workload, *refs, result))
        setup_samples.append(result["setup_s"])
        passes[mode] = result

    trace_path = ROOT / ".perfbench" / f"trace-{workload}-seed{seed}.json"
    trace_path.write_text(
        json.dumps(
            {
                "workload": workload,
                "seed": seed,
                "fields": ["name", "start", "end", "parent", "op"],
                "passes": {name: r["spans"] for name, r in passes.items() if "spans" in r},
            }
        )
    )
    metrics = traced_metrics(passes, setup_samples, probe_s, pass_s)
    shapes = {}
    for name in ("decompose", "ladder"):
        for shape, n in passes[name]["sizes"]["shapes"].items():
            shapes[shape] = shapes.get(shape, 0) + n
    print(f"# exactla matrix shapes {json.dumps(dict(sorted(shapes.items())))}")
    print(f"# spans written to {trace_path.relative_to(ROOT)}")
    ladder = [metrics[f"ladder.is_symplectic.{p}_ms"][0] for p in GENUS_LADDER]
    cyclic = [metrics[f"ladder.cyclic_subgroup.{p}_ms"][0] for p in MODULUS_LADDER]
    print(f"# ladder: is_symplectic {' / '.join(f'{v:.3g}' for v in ladder)} ms, cyclic_subgroup {' / '.join(f'{v:.3g}' for v in cyclic)} ms")
    print(f"# {BASELINE}")
    return metrics


# --- main ----------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def bench(args, tmp: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}
    # one untimed import first, so every timed import reads compiled bytecode
    subprocess.run([sys.executable, "-c", "import torusbundles.cli"], cwd=ROOT, env=env, check=True, timeout=60)

    worker_inputs_obj, refs = build_inputs(args.workload, args.seed, tmp)
    worker_inputs = tmp / "inputs.json"
    worker_inputs.write_text(json.dumps(worker_inputs_obj))
    if args.workload == "cli-subprocess":
        refs["cli_inputs"] = str(worker_inputs)
    elif args.trace:
        cli_inputs, _ = build_inputs("cli-subprocess", args.seed, tmp)
        refs["cli_inputs"] = str(tmp / "cli-inputs.json")
        Path(refs["cli_inputs"]).write_text(json.dumps(cli_inputs))
    print(f"# workload {args.workload}, seed {args.seed}, {len(worker_inputs_obj['ops'])} ops per pass")

    probe_s = machine_probe()
    counts = Counts()
    check_refs = (worker_inputs_obj, refs)
    if args.trace:
        metrics = traced_run(args.workload, str(worker_inputs), check_refs, args.seed, tmp, env, counts, probe_s)
    else:
        metrics, note = timed_run(args.workload, str(worker_inputs), check_refs, args.seconds, tmp, env, counts)
        print(f"# {note}")
    print(f"# machine probe {probe_s:.4f} s before the run, {machine_probe():.4f} s after")
    failed_frac = counts.failed / counts.attempted
    print(f"# attempted {counts.attempted}, failed {counts.failed} (failed_frac {failed_frac:.6f})")
    for index, reason in counts.reasons:
        print(f"# failure at op {index}: {reason}")
    return {
        "correct": counts.failed == 0,
        "attempted": counts.attempted,
        "failed": counts.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "torusbundles" / "__init__.py").is_file():
        print("error: src/torusbundles not found; run from the root of a torusbundles checkout", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=work))
    try:
        result = bench(args, tmp)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
