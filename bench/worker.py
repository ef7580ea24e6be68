"""Run one workload in this process and print its result as one JSON line.

    python3 bench/worker.py --workload models --seed 1 --seconds 10 --trace 0

Times are the CPU time of this single-threaded process's thread
(CLOCK_THREAD_CPUTIME_ID), calibrated against a reference kernel.  Other
tenants of a shared machine change the speed of interpreter-bound code by
up to a factor of two for tens of seconds at a time.  So before every
query the worker also times a fixed pure-Python kernel taken from the
benchmark's own checkers (no qublogic code), and scales the query's time
by REF_S over the median kernel time around it.  A query is also sampled
from inside: a CPU-time profiling timer runs the kernel every REF_EVERY_S,
and the kernel's CPU time is taken out of the query's.  A query long
enough for REF_INSIDE such samples is scaled by them instead.  The
reported times are those of a machine on which the kernel takes REF_S; a
change to qublogic moves them, a change of machine load does not.

Set-up is the CPU time from process start to the first timed query:
importing qublogic, then generating and parsing the workload's inputs,
without the benchmark's own expected-answer computations.  The timed phase
repeats whole rounds of the workload's queries, one query in flight at a
time, until the calibrated time spent inside queries reaches ``--seconds``.
Every output is checked right after its query, outside its latency.

With ``--trace 1`` the rounds are run twice, untraced and then traced with a
span around every call the benchmark makes into qublogic; the per-layer
metrics come from the traced pass.  ``--setup-only`` stops after set-up;
``--dump`` runs one round and prints digests of every call's arguments and
results, for the determinism self-check.
"""

import argparse
import hashlib
import json
import random
import resource
import signal
import statistics
import sys
import time
from collections import defaultdict, namedtuple
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
clock = time.thread_time  # precise also while a CPU-time timer is armed

REF_S = 0.0004  # calibrated CPU time of one reference-kernel run
REF_WINDOW = 7  # kernel samples on each side of a query
REF_EVERY_S = 0.25  # CPU time between kernel samples inside a query
REF_INSIDE = 8  # samples a query needs to be scaled by its own samples


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

_Node = namedtuple("_Node", "kind children var")


def _v(name):
    return _Node("var", (), name)


def _imp(a, b):
    return _Node("gimp", (a, b), "")


class Reference:
    """The reference kernel and its samples, in the order they were taken.

    The kernel evaluates the biG axiom (p -> q) -> ((q -> r) -> (p -> r))
    on every order type of three atoms with the checkers' chain evaluator.
    """

    def __init__(self):
        import checkers

        self.ck = checkers
        p, q, r = _v("p"), _v("q"), _v("r")
        self.tree = _imp(_imp(p, q), _imp(_imp(q, r), _imp(p, r)))
        self.samples: list = []
        self.inside_s = 0.0  # CPU time of samples taken inside queries
        self.busy = False
        self.sample()  # warm-up, not kept
        self.samples.clear()
        signal.signal(signal.SIGPROF, self._inside)

    def _run(self):
        for ranks, top in self.ck.order_types(3):
            env = dict(zip("pqr", ranks))
            self.ck.big_value(self.tree, lambda n: env[n.var], top)

    def sample(self) -> int:
        """Time the kernel once; returns the sample's index."""
        self.busy = True
        start = clock()
        self._run()
        self.samples.append(clock() - start)
        self.busy = False
        return len(self.samples) - 1

    def _inside(self, _signum, _frame):
        if not self.busy:
            start = clock()
            self.sample()
            self.inside_s += clock() - start

    @contextmanager
    def inside(self):
        """Sample the kernel every REF_EVERY_S of CPU time in the block."""
        signal.setitimer(signal.ITIMER_PROF, REF_EVERY_S, REF_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)

    def factor(self, i: int) -> float:
        """Scale for times measured next to sample ``i``."""
        near = self.samples[max(0, i - REF_WINDOW):i + REF_WINDOW + 1]
        return REF_S / statistics.median(near)

    def block(self) -> float:
        """Scale for work done now: the median of a fresh block of samples."""
        first = len(self.samples)
        for _ in range(2 * REF_WINDOW + 1):
            self.sample()
        return self.factor(first + REF_WINDOW)


# ---------------------------------------------------------------------------
# Tracing and the query context
# ---------------------------------------------------------------------------

class Tracer:
    """Spans kept in memory as (id, parent, execution, name, start, end, self).

    ``execution`` numbers the query executions of a pass; start and end are
    raw CPU-clock readings, self is the raw duration less child spans.
    """

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.execution = None
        self.counts: dict = defaultdict(int)

    def span(self, name, fn, args):
        sid = len(self.spans) + len(self.stack)
        parent = self.stack[-1][0] if self.stack else None
        frame = [sid, 0.0]
        self.stack.append(frame)
        start = clock()
        try:
            return fn(*args)
        finally:
            end = clock()
            self.stack.pop()
            if self.stack:
                self.stack[-1][1] += end - start
            self.spans.append((sid, parent, self.execution, name, start, end,
                               end - start - frame[1]))


class Ctx:
    """What a query sees: ``call`` into qublogic, ``count`` work, ``parse``."""

    def __init__(self):
        self.tracer: Tracer | None = None
        self.recorder = None
        self.untimed_s = 0.0
        self.syntax = None

    def call(self, name, fn, *args):
        if self.recorder is not None:
            return self.recorder(name, fn, args)
        if self.tracer is None:
            return fn(*args)
        return self.tracer.span(name, fn, args)

    def count(self, name, n):
        if self.tracer is not None:
            self.tracer.counts[name] += n

    def parse(self, lang, text):
        f = self.call("syntax.parse", self.syntax.parse, lang, text)
        if self.tracer is not None:
            self.tracer.counts["syntax.parse.nodes"] += _nodes(f)
        return f

    @contextmanager
    def untimed(self):
        """Benchmark-side work (expected answers) kept out of set-up time."""
        start = clock()
        try:
            yield
        finally:
            self.untimed_s += clock() - start


def _nodes(f) -> int:
    return 1 + sum(_nodes(c) for c in f.children)


def setup(args, ctx):
    if not (SRC / "qublogic" / "__init__.py").is_file():
        sys.exit(f"qublogic sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import qublogic
    from qublogic import syntax

    if Path(qublogic.__file__).resolve().parent != (SRC / "qublogic").resolve():
        sys.exit(f"imported qublogic from {qublogic.__file__}, not from {SRC}")
    ctx.syntax = syntax
    import workloads

    rng = random.Random(f"{args.workload}:{args.seed}")
    return workloads.BUILDERS[args.workload](ctx, rng)


# ---------------------------------------------------------------------------
# The timed phase
# ---------------------------------------------------------------------------

def run_rounds(ctx, queries, ref, *, seconds=None, rounds=None, holds=None):
    """Whole rounds until ``rounds`` are done or calibrated query time
    reaches ``seconds``.

    Returns (latencies, failures, rounds, scales): calibrated latencies in
    execution order, (query id, reason) for each failed execution, and the
    calibration scale of each execution.
    """
    raw: list = []
    marks: list = []  # (first sample after the query's start, first after its end)
    failures: list = []
    busy = 0.0
    done = 0
    while True:
        for q in queries:
            start = ref.sample() + 1
            if ctx.tracer is not None:
                ctx.tracer.execution = len(raw)
            err = None
            inside_s = ref.inside_s
            with ref.inside():
                t0 = clock()
                try:
                    out = q.run(ctx)
                except Exception as exc:  # a raising query is a failed query
                    err = f"raised {type(exc).__name__}: {exc}"
                t1 = clock()
            marks.append((start, len(ref.samples)))
            raw.append(t1 - t0 - (ref.inside_s - inside_s))
            busy += raw[-1] * ref.factor(start - 1)
            if err is None:
                try:
                    err = q.check(out)
                except Exception as exc:  # malformed output
                    err = f"check raised {type(exc).__name__}: {exc}"
            if err:
                failures.append((q.qid, err))
            elif holds is not None and q.grid is not None:
                verdict = out[0] if isinstance(out, tuple) else out
                holds[q.qid] = verdict.holds
        done += 1
        if (rounds is not None and done >= rounds) or (rounds is None and busy >= seconds):
            break
    for _ in range(REF_WINDOW):  # the last queries get samples on both sides
        ref.sample()
    scale = []
    for start, end in marks:
        within = ref.samples[start:end]  # taken inside the query
        scale.append(REF_S / statistics.median(within) if len(within) >= REF_INSIDE
                     else ref.factor(start - 1))
    return [t * s for t, s in zip(raw, scale)], failures, done, scale


def end_to_end(lat, failures, setup_s):
    ok = len(lat) - len(failures)
    return {
        "setup_s": [setup_s, "s"],
        "queries_per_s": [ok / sum(lat), "1/s"],
        "query_p50_ms": [statistics.median(lat) * 1000, "ms"],
        "query_p90_ms": [statistics.quantiles(lat, n=10, method="inclusive")[8] * 1000, "ms"],
        "peak_rss_mib": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"],
    }


# ---------------------------------------------------------------------------
# Per-layer metrics (traced run)
# ---------------------------------------------------------------------------

SELF_SPANS = (
    "decide.big_entails", "decide.g2_entails", "decide.qg_entails", "algebra.eval_g2",
    "kripke.support_table", "kripke.counterparts", "bd.support_table", "bd.four_eval_table",
    "measures.frame_validates", "measures.check_property", "measures.find_frame_countermodel",
    "measures.eval_qg", "measures.canonical_qg_model", "qp.translate_sif", "qp.qp_sat",
    "qp.represent_order_lp", "calculi.check_derivation", "calculi.match_axiom", "cli.main",
)


def _rate(work, seconds):
    return work / seconds if seconds > 0 else 0.0


def grid_points(ctx, q) -> int:
    """Grid points the exhaustive route covers for a decision query."""
    import checkers as ck
    from qublogic import decide

    route, _lang, gamma, f = q.grid
    if route == "qg":
        _, _, reps = ctx.call("decide.qg_merge_atoms", decide.qg_merge_atoms, [*gamma, f])
        k = len(reps)
    else:
        k = len(ck.atoms_of([*gamma, f]))
    return (2 * k + 2) ** (2 * k) if route == "g2" else (k + 2) ** k


def probe_pairs(ctx, queries, seed):
    """A fixed sample of (formula, valuation) pairs for each evaluator."""
    import checkers as ck
    from qublogic import syntax
    from qublogic.algebra import TwistValue

    rng = random.Random(f"probe:{seed}")
    seen: dict = {}
    for q in queries:
        for lang, f in q.probe:
            seen.setdefault((lang, f), None)
    formulas = sorted(seen, key=lambda item: (item[0], repr(_canon(item[1]))))
    big, g2 = [], []
    for lang, f in rng.sample(formulas, min(len(formulas), 120)):
        keys = [a.var if a.kind == "var" else ctx.call("syntax.print_formula",
                                                       syntax.print_formula, a)
                for a in ck.atoms_of([f])]
        for _ in range(5):
            if lang in ("BIG", "QG"):
                big.append((f, {k: Fraction(rng.randint(0, 6), 6) for k in keys}))
            else:
                g2.append((f, {k: TwistValue(Fraction(rng.randint(0, 6), 6),
                                             Fraction(rng.randint(0, 6), 6)) for k in keys}))
    return big, g2


def run_probe(fn, pairs, ref, min_seconds=0.3):
    """Calibrated evaluations per second over whole passes of the pairs."""
    if not pairs:
        return 0.0
    before = ref.block()
    done, start = 0, clock()
    while True:
        for f, e in pairs:
            fn(f, e)
        done += len(pairs)
        elapsed = clock() - start
        if elapsed >= min_seconds:
            break
    return done / (elapsed * (before + ref.block()) / 2)


def layer_metrics(spans, scale, counts, setup, rounds, holds, grid, untraced_busy, traced_busy,
                  probes):
    self_s: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    per_query: dict = defaultdict(float)
    for _sid, _parent, execution, name, _start, _end, own, qid in spans:
        own *= scale[execution]
        self_s[name] += own
        calls[name] += 1
        if name.startswith("decide.") and name.endswith("_entails"):
            per_query[qid] += own
    parse_s = setup["parse_s"]
    m = {
        "syntax.parse.self_s": [parse_s, "s"],
        "syntax.parse.nodes_per_s": [_rate(setup["parse_nodes"], parse_s), "1/s"],
    }
    for name in SELF_SPANS:
        m[f"{name}.self_s"] = [self_s[name] / rounds, "s"]
    points = sum(grid[qid] for qid, h in holds.items() if h)
    decide_s = sum(per_query[qid] for qid, h in holds.items() if h) / rounds
    m["decide.grid_points_per_s"] = [_rate(points, decide_s), "1/s"]
    m["algebra.eval_big.evals_per_s"] = [probes["eval_big"], "1/s"]
    m["algebra.eval_g2.evals_per_s"] = [probes["eval_g2"], "1/s"]
    m["kripke.support_table.cells_per_s"] = [
        _rate(counts["kripke.support_table.cells"], self_s["kripke.support_table"]), "1/s"]
    m["measures.frame_validates.frames_per_s"] = [
        _rate(calls["measures.frame_validates"], self_s["measures.frame_validates"]), "1/s"]
    m["qp.represent_order_lp.orders_per_s"] = [
        _rate(calls["qp.represent_order_lp"], self_s["qp.represent_order_lp"]), "1/s"]
    m["calculi.check_derivation.steps_per_s"] = [
        _rate(counts["calculi.check_derivation.steps"], self_s["calculi.check_derivation"]),
        "1/s"]
    m["calculi.match_axiom.calls"] = [calls["calculi.match_axiom"] / rounds, "count"]
    m["trace.overhead_s"] = [(traced_busy - untraced_busy) / rounds, "s"]
    return m


def traced_run(args, ctx, queries, ref, setup):
    from qublogic import algebra

    ctx.tracer = None
    lat0, fail0, rounds, _ = run_rounds(ctx, queries, ref, seconds=args.seconds)
    holds: dict = {}
    ctx.tracer = tracer = Tracer()
    lat1, fail1, _, scale = run_rounds(ctx, queries, ref, rounds=rounds, holds=holds)
    ctx.tracer = None
    qids = [q.qid for q in queries] * rounds
    spans = [(*s, qids[s[2]]) for s in tracer.spans]
    grid = {q.qid: grid_points(ctx, q) for q in queries if q.qid in holds}
    big, g2 = probe_pairs(ctx, queries, args.seed)
    probes = {"eval_big": run_probe(algebra.eval_big, big, ref),
              "eval_g2": run_probe(algebra.eval_g2, g2, ref)}
    metrics = layer_metrics(spans, scale, tracer.counts, setup, rounds, holds, grid, sum(lat0),
                            sum(lat1), probes)
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "rounds": rounds,
        "fields": ["id", "parent", "execution", "name", "start", "end", "self", "query"],
        "scale": scale, "setup_spans": setup["spans"], "spans": spans,
        "counts": tracer.counts}))
    return lat0 + lat1, fail0 + fail1, rounds, metrics


# ---------------------------------------------------------------------------
# Determinism dump
# ---------------------------------------------------------------------------

def _canon(x):
    """A hash-seed independent description of a value."""
    if is_dataclass(x) and not isinstance(x, type):
        return (type(x).__name__, tuple(_canon(getattr(x, fl.name)) for fl in fields(x)))
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, dict):
        return ("dict", tuple(sorted(((_canon(k), _canon(v)) for k, v in x.items()), key=repr)))
    if isinstance(x, (set, frozenset)):
        return ("set", tuple(sorted((_canon(v) for v in x), key=repr)))
    if isinstance(x, (list, tuple)):
        return tuple(_canon(v) for v in x)
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    return (type(x).__name__, repr(x))


def dump(ctx, queries, ref):
    inputs, outputs = hashlib.sha256(), hashlib.sha256()

    def recorder(name, fn, args):
        result = fn(*args)
        inputs.update(repr((name, _canon(args))).encode())
        outputs.update(repr((name, _canon(result))).encode())
        return result

    ctx.recorder = recorder
    _, failures, _, _ = run_rounds(ctx, queries, ref, rounds=1)
    ctx.recorder = None
    return {"queries": len(queries), "failed": len(failures),
            "inputs": inputs.hexdigest(), "outputs": outputs.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--dump", action="store_true")
    args = parser.parse_args(argv)

    ctx = Ctx()
    if args.trace:
        ctx.tracer = Tracer()
    with ctx.untimed():  # calibrate on both sides of set-up
        ref = Reference()
        ref.block()
    queries = setup(args, ctx)
    setup_raw = clock() - ctx.untimed_s
    ref.block()
    setup_scale = REF_S / statistics.median(ref.samples)
    setup_s = setup_raw * setup_scale
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.dump:
        print(json.dumps(dump(ctx, queries, ref)))
        return 0
    if args.trace:
        spans = ctx.tracer.spans
        traced_setup = {
            "spans": spans, "parse_nodes": ctx.tracer.counts["syntax.parse.nodes"],
            "parse_s": setup_scale * sum(s[6] for s in spans if s[3] == "syntax.parse")}
        lat, failures, rounds, metrics = traced_run(args, ctx, queries, ref, traced_setup)
    else:
        lat, failures, rounds, _ = run_rounds(ctx, queries, ref, seconds=args.seconds)
        metrics = end_to_end(lat, failures, setup_s)
    per_round = len(lat) // len(queries)
    by_family: dict = defaultdict(list)
    for q, t in zip(queries * per_round, lat):
        by_family[q.family].append(t)
    for qid, why in failures[:10]:
        print(f"failed {qid}: {why}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": rounds, "queries_per_round": len(queries),
        "reference_ms": statistics.median(ref.samples) * 1000,
        "family_ms": {k: {"queries": len(v) // per_round, "p50": statistics.median(v) * 1000,
                          "total_per_round": sum(v) * 1000 / per_round}
                      for k, v in sorted(by_family.items())},
        "attempted": len(lat), "failed": len(failures),
        "failures": failures[:10], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
