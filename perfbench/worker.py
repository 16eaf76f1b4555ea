"""One pass of a workload in a fresh interpreter: ``python3 worker.py JOB.json``.

run.py starts this with ``src`` on PYTHONPATH.  The job file names the
workload, the mode, the inputs file and the path to write the result to.
Modes:

  plain      the timed closed loop: one op after another, no spans;
  optrace    the same loop with a span around each call into the package;
  decompose  optrace, and before every stride-th op each of its component
             calls made and timed on its own, for the per-layer metrics;
  ladder     fixed probes at the ROADMAP Baseline points;
  cliprobe   each CLI subcommand run in-process and then the library call
             it wraps, to split CLI overhead from compute;
  setup      only the timed import, for more set-up samples.

Outputs are summarised after the clock stops; run.py checks them.
"""

import os
import time

CPU_PROBE_ITERATIONS = 30_000
CPU_CHECK_INTERVAL_S = 0.2


class FastestCpu:
    """Keeps this process on the allowed CPU where a short loop runs fastest now.

    On a shared VM a co-tenant can slow one core at a time by 40% or more,
    for a fraction of a second up to minutes.  check() runs between ops,
    outside their timing, at most every CPU_CHECK_INTERVAL_S.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.next_check = 0.0

    def check(self):
        if len(self.cpus) < 2 or time.perf_counter() < self.next_check:
            return
        timings = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            start = time.perf_counter()
            total = 0
            for i in range(CPU_PROBE_ITERATIONS):
                total += i * i % 7
            timings[cpu] = time.perf_counter() - start
        os.sched_setaffinity(0, {min(timings, key=timings.get)})
        self.next_check = time.perf_counter() + CPU_CHECK_INTERVAL_S


CPU = FastestCpu()
CPU.check()
_start = time.perf_counter()
import torusbundles  # noqa: E402  (timed: the program's own set-up)
import torusbundles.cli  # noqa: E402

SETUP_S = time.perf_counter() - _start

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from torusbundles import (  # noqa: E402
    betti,
    cokernel_structure,
    cyclic_subgroup,
    e2_ranks,
    fiber_class_via_spectral,
    fixed_sublattice,
    fold_product_poly,
    fox_boundary_matrices,
    h1_total_space,
    integer_kernel,
    is_symplectic,
    parity_sweep,
    parse_bundle,
    rank,
    snf,
    sw4_zero_closed,
    sw4_zero_coset,
    sw_poly_circle_bundle,
)
from torusbundles.homology import fiber_relation_matrix  # noqa: E402

from reference import closed_form_defined  # noqa: E402

EXACTLA = (
    ("exactla.rank", rank),
    ("exactla.cokernel_structure", cokernel_structure),
    ("exactla.integer_kernel", integer_kernel),
    ("exactla.snf", snf),
)
LADDER_GENUS = (2, 20, 100)
LADDER_MODULUS = (61, 121, 241)
LADDER_REPS = 3
CLI_PROBE_REPS = 5


class Tracer:
    """Spans (name, start, end, parent index, op id), kept in memory until the pass ends."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    def call(self, name, fn, *args):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)


def untraced(name, fn, *args):
    return fn(*args)


class Sizes:
    """Shapes and entry sizes of the matrices handed to exactla, and of SW polynomials."""

    def __init__(self):
        self.matrices = 0
        self.cells = 0
        self.max_rows = 0
        self.max_cols = 0
        self.max_entry_bits = 0
        self.shapes = {}
        self.stored_terms = 0
        self.nonzero_terms = 0

    def matrix(self, m):
        self.matrices += 1
        self.cells += m.rows * m.cols
        self.max_rows = max(self.max_rows, m.rows)
        self.max_cols = max(self.max_cols, m.cols)
        bits = max((abs(x).bit_length() for row in m.entries for x in row), default=0)
        self.max_entry_bits = max(self.max_entry_bits, bits)
        shape = f"{m.rows}x{m.cols}"
        self.shapes[shape] = self.shapes.get(shape, 0) + 1

    def poly(self, p):
        # entries held in the object's own containers, whatever representation it uses
        fields = getattr(p, "__dict__", {}).values()
        self.stored_terms += sum(len(v) for v in fields if isinstance(v, (tuple, list, dict)))
        self.nonzero_terms += len(p.nonzero_terms())


# --- ops: the calls one op makes, and the summary run.py checks ------------


def classify_op(call, op):
    bundle = call("bundle.parse_bundle", parse_bundle, op["text"])
    return call("classify.is_symplectic", is_symplectic, bundle)


def classify_summary(report):
    return {
        "b1": report.b1,
        "b2": report.b2,
        "has_circle_action": report.has_circle_action,
        "symplectic": report.symplectic,
        "betti_oracle": report.cross_checks.betti_oracle,
        "spectral_oracle": report.cross_checks.spectral_oracle,
    }


def classify_components(call, op, sizes):
    """is_symplectic's direct components under one span, then the layers below them."""
    bundle = parse_bundle(op["text"])

    def direct():
        call("bundle.fixed_sublattice", fixed_sublattice, bundle)
        call("homology.betti", betti, bundle)
        call("homology.h1_total_space", lambda: h1_total_space(bundle.flat_twin()))
        if call("bundle.surface_relation_holds", bundle.surface_relation_holds):
            call("spectral.fiber_class_via_spectral", fiber_class_via_spectral, bundle)

    def layers():
        call("homology.h1_total_space", h1_total_space, bundle)
        d2, d1 = call(
            "spectral.fox_boundary_matrices", fox_boundary_matrices, bundle.genus, bundle.monodromy
        )
        call("spectral.e2_ranks", e2_ranks, bundle.genus, bundle.monodromy)
        for matrix in (fiber_relation_matrix(bundle), d2, d1):
            sizes.matrix(matrix)
            for name, fn in EXACTLA:
                call(name, fn, matrix)

    call("components", direct)
    call("layers", layers)


def sw_op(call, op):
    g, m, n = op["g"], op["m"], op["n"]
    coset = call("swcalc.sw4_zero_coset", sw4_zero_coset, g, m, n)
    closed = call("swcalc.sw4_zero_closed", sw4_zero_closed, g, m, n) if closed_form_defined(m, n) else None
    return {"coset": coset, "closed": closed}


def sw_components(call, op, sizes):
    g, m, n = op["g"], op["m"], op["n"]
    sizes.poly(call("swcalc.sw_poly_circle_bundle", sw_poly_circle_bundle, g, n))
    sizes.poly(call("swcalc.fold_product_poly", fold_product_poly, g, n))
    call("swcalc.cyclic_subgroup", cyclic_subgroup, m, n)
    call("swcalc.cyclic_subgroup", cyclic_subgroup, 2 * m, n)


def grid_op(call, op, n_values):
    return call("swcalc.parity_sweep", parity_sweep, [op["g"]], [op["m"]], n_values)


def grid_summary(report):
    return {
        "cases": report.cases,
        "skipped": report.skipped,
        "all_even": report.all_even,
        "counterexamples": len(report.counterexamples),
    }


def grid_components(call, op, sizes, n_values):
    for n in n_values:
        if n != 0:
            cell = {"g": op["g"], "m": op["m"], "n": n}
            sw_components(call, cell, sizes)
            sw_op(call, cell)


def spawn_cli(argv, root):
    return subprocess.run(
        [sys.executable, "-m", "torusbundles.cli", *argv],
        capture_output=True,
        text=True,
        cwd=root,
        timeout=120,
    )


def cli_summary(proc):
    return {"returncode": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


def library_answer(call, op):
    """The library's answer for one CLI op, in the payload's field names."""
    command = op["command"]
    if command in ("classify", "homology", "spectral"):
        bundle = call("bundle.parse_bundle", parse_bundle, json.dumps(op["bundle"]))
    if command == "classify":
        report = call("classify.is_symplectic", is_symplectic, bundle)
        return {
            "b1": report.b1,
            "b2": report.b2,
            "symplectic": report.symplectic,
            "fiber_class_nonzero": report.fiber_class_nonzero,
            "has_circle_action": report.has_circle_action,
        }
    if command == "homology":
        group = call("homology.h1_total_space", h1_total_space, bundle)
        return {
            "h1": str(group),
            "free_rank": group.free_rank,
            "invariant_factors": list(group.invariant_factors),
        }
    if command == "spectral":
        ranks = call("spectral.e2_ranks", e2_ranks, bundle.genus, bundle.monodromy)
        verdict = call("spectral.fiber_class_via_spectral", fiber_class_via_spectral, bundle)
        return {"rank_e11": ranks.rank_e11, "fiber_class_nonzero": verdict}
    if command == "swpoly":
        poly = call("swcalc.sw_poly_circle_bundle", sw_poly_circle_bundle, op["genus"], op["n"])
        return {"modulus": poly.modulus, "coefficients": list(poly.coefficients)}
    if command == "sw0":
        routes = sw_op(call, {"g": op["genus"], "m": op["m"], "n": op["n"]})
        return {"coset_route": routes["coset"], "closed_route": routes["closed"]}
    g_range = range(op["g"][0], op["g"][1] + 1)
    mn = range(op["mn"][0], op["mn"][1] + 1)
    report = call("swcalc.parity_sweep", parity_sweep, g_range, mn, mn)
    return {"cases": report.cases, "skipped": report.skipped, "all_even": report.all_even}


# --- passes ------------------------------------------------------------------


def run_ops(job, inputs, call, tracer, sizes):
    """The closed loop over the job's ops; returns latencies and output summaries."""
    workload, stride = job["workload"], job.get("stride", 0)
    if workload == "classify-mixed":
        op_fn, summary, components = classify_op, classify_summary, classify_components
    elif workload == "sw-large-modulus":
        op_fn, summary, components = sw_op, dict, sw_components
    elif workload == "sw-parity-grid":
        n_values = inputs["n_values"]

        def op_fn(c, op):
            return grid_op(c, op, n_values)

        def components(c, op, s):
            grid_components(c, op, s, n_values)

        summary = grid_summary
    else:

        def op_fn(c, op):
            return c("cli.process", spawn_cli, op["argv"], job["root"])

        summary, components = cli_summary, None

    latencies, outputs = [], []
    for i, op in enumerate(inputs["ops"]):
        CPU.check()
        if tracer is not None:
            tracer.op = f"op:{i}"
            if stride and components is not None and i % stride == 0:
                # components first, so cached results are computed cold here
                tracer.call("components-of-op", components, call, op, sizes)
        start = time.perf_counter()
        try:
            raw = call("op", op_fn, call, op)
        except Exception as exc:  # a failing op is counted, the loop goes on
            latencies.append(time.perf_counter() - start)
            outputs.append({"error": f"{type(exc).__name__}: {exc}"})
            continue
        latencies.append(time.perf_counter() - start)
        outputs.append(summary(raw))
    return latencies, outputs


def after_loop(job, inputs):
    """Untimed follow-up calls whose results run.py checks against the reference."""
    workload = job["workload"]
    extra = {}
    if workload in ("sw-large-modulus", "sw-parity-grid"):
        if workload == "sw-large-modulus":
            pairs = {(op["g"], op["n"]) for op in inputs["ops"]}
        else:
            pairs = {(op["g"], n) for op in inputs["ops"] for n in inputs["n_values"] if n}
        extra["polys"] = [
            [g, n, list(sw_poly_circle_bundle(g, n).coefficients), list(fold_product_poly(g, n).coefficients)]
            for g, n in sorted(pairs)
        ]
    if workload == "sw-parity-grid":
        extra["cells"] = []
        for g, m, n in inputs["sample_cells"]:
            try:
                extra["cells"].append([g, m, n, sw_op(untraced, {"g": g, "m": m, "n": n})])
            except Exception as exc:
                extra["cells"].append([g, m, n, {"error": f"{type(exc).__name__}: {exc}"}])
    if workload == "cli-subprocess":
        extra["library"] = [
            library_answer(untraced, op) if op["format"] == "json" else None for op in inputs["ops"]
        ]
    return extra


def ladder(tracer, sizes):
    for g in LADDER_GENUS:
        doc = {
            "genus": g,
            "monodromy": [[[1, 1], [0, 1]]] + [[[1, 0], [0, 1]]] * (2 * g - 1),
            "euler": [3, 0],
        }
        op = {"text": json.dumps(doc)}
        for rep in range(LADDER_REPS):
            CPU.check()
            tracer.op = f"ladder:g{g}:{rep}"
            classify_op(tracer.call, op)
            classify_components(tracer.call, op, sizes)
    for n in LADDER_MODULUS:
        for rep in range(LADDER_REPS):
            CPU.check()
            tracer.op = f"ladder:n{n}:{rep}"
            tracer.call("swcalc.cyclic_subgroup", cyclic_subgroup, 1, n)
            tracer.call("swcalc.sw4_zero_coset", sw4_zero_coset, 3, 1, n)
            tracer.call("swcalc.sw4_zero_closed", sw4_zero_closed, 3, 1, n)
            sizes.poly(tracer.call("swcalc.fold_product_poly", fold_product_poly, 3, n))


def cli_probe(tracer, inputs):
    """Each subcommand in-process with stdout captured, then the library call it wraps."""
    seen = set()
    for op in inputs["ops"]:
        command = op["command"]
        if op["format"] != "json" or command in seen:
            continue
        seen.add(command)
        for rep in range(CLI_PROBE_REPS + 1):  # rep 0 warms caches and is not reported
            CPU.check()
            tracer.op = f"cli:{command}:{rep}"
            with contextlib.redirect_stdout(io.StringIO()):
                code = tracer.call(f"cli.run.{command}", torusbundles.cli.run, op["argv"])
            if code != 0:
                raise RuntimeError(f"cli {op['argv']} exited {code}")
            tracer.call(f"cli.library.{command}", library_answer, tracer.call, op)


def main(job_path):
    job = json.loads(Path(job_path).read_text())
    mode = job["mode"]
    if mode == "setup":
        Path(job["out"]).write_text(json.dumps({"setup_s": SETUP_S, "mode": mode}))
        return
    inputs = json.loads(Path(job["inputs"]).read_text())
    tracer = None if mode == "plain" else Tracer()
    sizes = Sizes()
    result = {"setup_s": SETUP_S, "mode": mode}
    if mode in ("plain", "optrace", "decompose"):
        call = untraced if tracer is None else tracer.call
        if mode != "decompose":
            job = {**job, "stride": 0}
        latencies, outputs = run_ops(job, inputs, call, tracer, sizes)
        result["latencies"] = latencies
        result["outputs"] = outputs
        result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["children_maxrss_kib"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["extra"] = after_loop(job, inputs)
    elif mode == "ladder":
        ladder(tracer, sizes)
    elif mode == "cliprobe":
        cli_probe(tracer, inputs)
    else:
        raise SystemExit(f"unknown mode {mode}")
    if tracer is not None:
        result["spans"] = tracer.spans
    result["sizes"] = vars(sizes)
    Path(job["out"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
