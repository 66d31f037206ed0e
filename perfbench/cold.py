"""One cold leibniz_lab process, started by run.py.

    python3 perfbench/cold.py setup
        Time from before `import leibniz_lab` to the end of the first call
        that imports sympy (a canonical decomposition), then a burst of
        speed probes.
    python3 perfbench/cold.py tables [--trace FILE]
        One pass of the tables workload, 14 steps: classify --verify
        --format json for dims 4..8 and both solvable tables, each followed
        by a formats round trip of the emitted table; match-paper for dims
        4..7 (all through cli.main in-process); distinctness_report for
        dims 4..6.  A burst of speed probes runs before the first step and
        after each step, outside the step's time.

Prints one JSON object on stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import program

CLASSIFY = [
    (f"classify-dim{n}", ["classify", "--dim", str(n), "--verify", "--format", "json"])
    for n in range(4, 9)
] + [
    ("classify-solvable-dim2", ["classify", "--solvable", "--verify", "--format", "json"]),
    ("classify-solvable-dim3", ["classify", "--dim", "3", "--solvable", "--verify", "--format", "json"]),
]
MATCH = [(f"match-dim{n}", ["match-paper", "--dim", str(n)]) for n in range(4, 8)]
DISTINCT = range(4, 7)
PROBES_PER_STEP = 5
# Probes after the timed set-up, on the core that did it while it is still
# busy: probes taken by the parent around the child, after it sat idle in
# wait(), ran slow and made the scaled set-up time spread more than the raw.
SETUP_PROBES = 9


def setup():
    start = perf_counter()
    lab = program.load()
    Scalar = lab["scalars"].Scalar
    M = ((Scalar.rational(0), Scalar.rational(1)), (Scalar.rational(2), Scalar.rational(0)))
    lab["pencil"].canonical_decomposition(M)
    elapsed = perf_counter() - start
    if "sympy" not in sys.modules:
        raise SystemExit("the first decomposition did not import sympy")
    import speed  # after the timed part: its imports are not set-up work

    return {"setup_s": elapsed, "probes": speed.burst(SETUP_PROBES)}


def _cli(lab, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = lab["cli"].main(argv)
    if rc != 0:
        raise RuntimeError(f"exit code {rc}")
    return buf.getvalue()


def tables(trace_path=None):
    import speed

    lab = program.load()
    tracer = None
    if trace_path:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(lab)
        tracer.on = True
    steps = []  # [name, seconds, ok]
    probes = [speed.burst(PROBES_PER_STEP)]  # before step 0, then after each step
    outputs = {}

    def step(name, fn):
        t = perf_counter()
        try:
            out = fn()
            ok = True
        except Exception as exc:  # a failed operation is counted, not fatal
            out = f"{type(exc).__name__}: {exc}"
            ok = False
        steps.append([name, perf_counter() - t, ok])
        outputs[name] = out
        probes.append(speed.burst(PROBES_PER_STEP))

    formats = lab["formats"]

    def classify_and_round_trip(argv):
        text = _cli(lab, argv)
        docs = formats.load_table(text)
        again = formats.store_table([formats.algebra_to_doc(d.algebra, d.blocks) for d in docs])
        if again != text:
            raise RuntimeError("table text changed in a formats round trip")
        return text

    for name, argv in CLASSIFY:
        step(name, lambda argv=argv: classify_and_round_trip(argv))
    for name, argv in MATCH:
        step(name, lambda argv=argv: _cli(lab, argv))
    for n in DISTINCT:
        step(f"distinct-dim{n}", lambda n=n: lab["classify"].distinctness_report(n).to_json())
    out = {
        "steps": steps,
        "probes": probes,
        "outputs": outputs,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.on = False
        tracer.write(Path(trace_path))
        out["totals"] = tracer.layer_totals()
        out["pencil_units"] = [
            [[[str(x) for x in row] for row in arg], dur]
            for _, _, dur, arg in tracer.units
            if arg is not None
        ]
    return out


def main(argv):
    if argv[:1] == ["setup"]:
        result = setup()
    elif argv[:1] == ["tables"]:
        trace_path = argv[2] if argv[1:2] == ["--trace"] else None
        result = tables(trace_path)
    else:
        print(__doc__, file=sys.stderr)
        return 2
    sys.stdout.write(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
