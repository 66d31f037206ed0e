"""leibniz-lab benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads:
    tables               cold CLI passes over the paper's classification tables
    congruence-int       canonical_decomposition of S^T M S, integer blocks, sizes 2..9
    congruence-gaussian  the same with Gaussian-rational B parameters and a
                         diagonal of 1/2, 1+i, 2-i in S, sizes 2..5
    iso                  isomorphic_dim1_nilpotent + iso_invariants on pairs of
                         table entries of dims 4..8

Every answer is checked by oracle.py, which shares no code with leibniz_lab.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1).  A summary for people goes to stderr.

Timings with --trace 0 are scaled to a reference machine speed read from
probes taken between the timed operations (speed.py); the stderr summary
also gives the raw op_p50 and the median probe time.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import cold
import gen
import oracle
import program
import spans
import speed

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
WORKLOADS = ("tables", "congruence-int", "congruence-gaussian", "iso")
SETUP_RUNS = 5
# A run may take 180 s: no round starts after LAST_ROUND_S, and a cold
# pass still running at DEADLINE_S is killed.
LAST_ROUND_S = 120
DEADLINE_S = 170


def run_cold(args, timeout):
    """Run cold.py in a fresh interpreter and return its JSON answer."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "cold.py"), *args],
        capture_output=True,
        text=True,
        timeout=max(timeout, 1),
        cwd=program.ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cold.py {' '.join(args)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def measure_setup():
    """Median over SETUP_RUNS cold processes, after one that writes bytecode;
    each scaled by the probes it ran right after its set-up.  Returns the
    scaled median and the raw one."""
    run_cold(["setup"], 20)
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        res = run_cold(["setup"], 20)
        raw.append(res["setup_s"])
        scaled.append(speed.scale(res["setup_s"], res["probes"]))
    return statistics.median(scaled), statistics.median(raw)


def quantile_ms(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1000


def _matrix_g(text_rows):
    return [[oracle.evaluate(t) for t in row] for row in text_rows]


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------
def check_tables(outputs, steps_ok, rng):
    fails = []
    ref8 = json.loads(program.fixture_path("dim8_blocks.json").read_text())
    for n in range(4, 9):
        name = f"classify-dim{n}"
        if steps_ok[name]:
            fails += oracle.check_nilpotent_table(
                n, outputs[name], rng, ref8 if n == 8 else None
            )
    for name, dim, count, derived in (
        ("classify-solvable-dim2", 2, 1, 1),
        ("classify-solvable-dim3", 3, 6, 2),
    ):
        if steps_ok[name]:
            fails += oracle.check_solvable_table(outputs[name], dim, count, derived, rng)
    for n in range(4, 8):
        if steps_ok[f"match-dim{n}"] and steps_ok[f"classify-dim{n}"]:
            fails += oracle.check_match_report(
                n, outputs[f"match-dim{n}"], outputs[f"classify-dim{n}"]
            )
    for n in range(4, 7):
        if steps_ok[f"distinct-dim{n}"] and steps_ok[f"classify-dim{n}"]:
            fails += oracle.check_distinctness(
                n, outputs[f"distinct-dim{n}"], outputs[f"classify-dim{n}"]
            )
    return fails


def run_tables(seed, stop_at, trace, deadline):
    rng = random.Random(seed)
    walls, raw_walls, pass_steps, rss = [], [], [], []
    attempted = failed = 0
    fails, checked = [], set()
    totals, units = {}, []
    while True:
        args = ["tables"]
        if trace:
            args += ["--trace", str(RESULTS / f"trace-tables-pass{len(walls)}.tsv")]
        t = perf_counter()
        res = run_cold(args, deadline - t)
        bursts = res["probes"]  # before step 0, then after each step
        wall = perf_counter() - t - sum(p for b in bursts for p in b)
        raw_walls.append(wall)
        rss.append(res["rss_mb"])
        # Each step is scaled by the bursts around it; the rest of the pass
        # (interpreter start, imports) by the first burst.
        scaled_wall = speed.scale(wall - sum(sec for _, sec, _ in res["steps"]), bursts[0])
        step_s = []
        steps_ok = {}
        for i, (name, sec, ok) in enumerate(res["steps"]):
            attempted += 1
            failed += not ok
            steps_ok[name] = ok
            scaled = speed.scale(sec, bursts[i] + bursts[i + 1])
            scaled_wall += scaled
            if ok:
                step_s.append(scaled)
        walls.append(scaled_wall)
        pass_steps.append(step_s)
        key = json.dumps(res["outputs"], sort_keys=True)
        if key not in checked:  # identical output, identical verdict
            checked.add(key)
            fails += check_tables(res["outputs"], steps_ok, rng)
        for name, value in res.get("totals", {}).items():
            totals[name] = totals.get(name, 0) + value
        units += res.get("pencil_units", [])
        if perf_counter() >= stop_at:
            break
    summary = {"passes": len(walls), "raw_pass_wall_s": [round(w, 3) for w in raw_walls]}
    if trace:
        sides = ([], [])
        for text_rows, dur in units:
            sides[0 if oracle.pencil_is_singular(_matrix_g(text_rows)) else 1].append(dur)
        summary["pencil_calls_singular_share"] = len(sides[0]) / max(1, len(units))
        metrics = spans.per_layer_metrics(totals, len(walls), *sides)
    else:
        # Step latencies are 14 different steps, so quantiles are taken per
        # pass and their median reported: pooled over 2 or 3 passes, the
        # 90th percentile fell between different steps and spread by 0.12.
        every_step = [s for steps in pass_steps for s in steps]
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "ops_per_s": (len(every_step) / sum(every_step), "1/s"),
            "op_p50_ms": (statistics.median(statistics.median(p) for p in pass_steps) * 1000, "ms"),
            "op_p90_ms": (statistics.median(quantile_ms(p, 90) for p in pass_steps), "ms"),
            "peak_rss_mb": (max(rss), "MB"),
        }
    return attempted, failed, fails, metrics, summary


# ---------------------------------------------------------------------------
# query workloads
# ---------------------------------------------------------------------------
def congruence_answer(lab, q):
    return lab["pencil"].canonical_decomposition(*q.args)


def check_congruence(q, blocks):
    return oracle.check_decomposition(q.expected, [b.name for b in blocks])


def iso_answer(lab, q):
    iso = lab["iso"]
    A, B = q.args
    verdict = iso.isomorphic_dim1_nilpotent(A, B)
    return verdict, iso.iso_invariants(A), iso.iso_invariants(B)


def _prods(A):
    return oracle.algebra_from_tensor_text(
        [[[str(c) for c in vec] for vec in row] for row in A.tensor]
    )


def check_iso(q, answer):
    verdict, inv_a, inv_b = answer
    A, B = q.args
    n, pa = _prods(A)
    _, pb = _prods(B)
    where = f"{q.kind} pair {q.extra['entries']}"
    fails = []
    if verdict.isomorphic != q.expected:
        fails.append(f"{where}: verdict {verdict.isomorphic}, built {q.expected}")
    if q.extra["P"] is not None:
        P = _matrix_g([[str(x) for x in row] for row in q.extra["P"]])
        if not oracle.is_basis_change(n, pa, pb, P):
            fails.append(f"{where}: change_of_basis(A, P) is not A in the basis P")
    if verdict.witness is not None:
        W = _matrix_g([[str(x) for x in row] for row in verdict.witness])
        if not q.expected or not oracle.is_basis_change(n, pa, pb, W):
            fails.append(f"{where}: the returned witness does not map A to B")
    fails += oracle.check_invariants(f"{where} left", inv_a.to_json(), n, pa, q.singular)
    fails += oracle.check_invariants(
        f"{where} right", inv_b.to_json(), n, pb, q.extra["singular_b"]
    )
    return fails


def run_queries(lab, workload, seed, stop_at, tracer):
    rng = random.Random(seed)
    if workload == "iso":
        source, answer, check = gen.Iso(lab), iso_answer, check_iso
    else:
        source = gen.Congruence(lab, gaussian=workload == "congruence-gaussian")
        answer, check = congruence_answer, check_congruence
    raw, ok, probes, round_of = [], [], [], []  # one entry per attempt
    n_rounds = 0
    attempted = failed = 0
    fails = []
    mix = {"singular": 0, "integer": 0}
    while True:
        queries = source.round(rng)
        done = []
        for q in queries:
            if tracer:
                tracer.query = (attempted, q.singular)
                tracer.on = True
            t = perf_counter()
            try:
                ans = answer(lab, q)
            except Exception as exc:  # a failed operation is counted, not fatal
                ans = exc
            dt = perf_counter() - t
            if tracer:
                tracer.on = False
            else:
                probes.append(speed.probe())
            attempted += 1
            raw.append(dt)
            round_of.append(n_rounds)
            if isinstance(ans, Exception):
                ok.append(False)
                failed += 1
                print(f"failed: {q.kind} size {q.size}: {ans!r}", file=sys.stderr)
                continue
            ok.append(True)
            done.append((q, ans))
        for q, ans in done:
            fails += check(q, ans)
            mix["singular"] += q.singular
            mix["integer"] += _integer_entries(q)
        n_rounds += 1
        if perf_counter() >= stop_at:
            break
    scaled = raw if tracer else speed.scale_series(raw, probes)
    latencies = [s for s, good in zip(scaled, ok) if good]
    round_s = [0.0] * n_rounds
    for s, r in zip(scaled, round_of):
        round_s[r] += s
    summary = {
        "rounds": n_rounds,
        "queries": attempted,
        "singular_share": mix["singular"] / attempted,
        "integer_entry_share": mix["integer"] / attempted,
        "raw_op_p50_ms": statistics.median(d for d, good in zip(raw, ok) if good) * 1000,
    }
    if probes:
        summary["probe_p50_ms"] = statistics.median(probes) * 1000
    if tracer:
        sides = ([], [])
        for flag, sec in tracer.pencil_seconds_by_query():
            sides[0 if flag else 1].append(sec)
        metrics = spans.per_layer_metrics(tracer.layer_totals(), len(latencies), *sides)
    else:
        metrics = {
            "wall_s": (statistics.median(round_s), "s"),
            "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
            "op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
            "op_p90_ms": (quantile_ms(latencies, 90), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    return attempted, failed, fails, metrics, summary


def _integer_entries(q):
    """True iff every number the query hands to the program is an integer."""
    if "matrix" in q.extra:
        texts = [t for row in q.extra["matrix"] for t in row]
    else:
        texts = [str(c) for A in q.args for row in A.tensor for vec in row for c in vec]
    return all(oracle.evaluate(t).is_integer() for t in texts)


# ---------------------------------------------------------------------------
def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = perf_counter()

    lab = program.load()  # exits with status 2 when the checkout has no sources
    setup_s = raw_setup_s = None
    if not args.trace:
        setup_s, raw_setup_s = measure_setup()
    last_round = start + LAST_ROUND_S
    if args.workload == "tables":
        stop_at = min(perf_counter() + args.seconds, last_round)
        attempted, failed, fails, metrics, summary = run_tables(
            args.seed, stop_at, args.trace, start + DEADLINE_S
        )
    else:
        cold.setup()  # sympy imported and caches primed before timing
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            tracer.install(lab)
        stop_at = min(perf_counter() + args.seconds, last_round)
        attempted, failed, fails, metrics, summary = run_queries(
            lab, args.workload, args.seed, stop_at, tracer
        )
        if tracer:
            tracer.write(RESULTS / f"trace-{args.workload}.tsv")
    if setup_s is not None:
        metrics["setup_s"] = (setup_s, "s")
        summary["raw_setup_s"] = raw_setup_s
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    summary["run_s"] = round(perf_counter() - start, 2)
    for f in fails[:20]:
        print(f"WRONG: {f}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **summary}), file=sys.stderr)
    print(
        json.dumps(
            {"correct": not fails, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
