"""icmlab benchmark: cold ``icm-lab`` passes over three workloads.

    python3 icmbench/run.py --workload {suites,minors,gb-cold} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a checkout; the icmlab sources are read from
``src/`` next to this directory.  One pass runs every query of the workload,
one after another (closed loop, one client), in a fresh interpreter that
calls ``icmlab.cli_app.main`` per query, because every real ``icm-lab`` call
starts cold.  A run makes a fixed number of passes, ``--seconds`` divided by
the workload's nominal pass length, so every run pools the same number of
samples.  Answers are checked after the timed passes against references
independent of the timed path; a pre-flight runs the ``tests/corpus`` files
twice.

With ``--trace 0`` the last stdout line carries the end-to-end metrics, every
time scaled to a reference host speed read while the pass runs (see
``normalize``).  With
``--trace 1`` plain and traced passes alternate and it carries the per-layer
metrics measured by ``tracer.py``, plus the tracing overhead.  Lines before it
give the sample counts, the tail percentile used, fail_frac, each pass's CPU
time and, on ``minors``, the time of each instance.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CORPUS = os.path.join(ROOT, "tests", "corpus")
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Seconds per untraced pass at the commit that defined the benchmark; they
# fix the pass count per run, and with it the tail percentile.
NOMINAL_PASS_S = {"suites": 13.5, "minors": 4.8, "gb-cold": 5.0}
# Reference speed: seconds one speed reading (child.Sampler.read) takes on
# the host that defined the benchmark.  End-to-end times are scaled to that
# speed (see normalize).
REF_SAMPLE_S = 0.001
TRACED_PASS_FACTOR = 1.4  # rough traced/untraced pass length, for trace-run pass counts
SETUP_SAMPLES = 5  # setup_s is the median of at least this many spawns
TAIL_BEYOND = 10
RUN_LIMIT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)
POLY_ARITH = tuple(
    "ring_core." + n
    for n in (
        "remap_variables",
        "Polynomial.__add__",
        "Polynomial.__sub__",
        "Polynomial.__mul__",
        "Polynomial.shift",
        "Polynomial.monic",
    )
)
MONOMIAL = tuple(
    "invariants." + n
    for n in (
        "krull_dimension",
        "height",
        "minimal_primes_monomial",
        "associated_primes_monomial",
    )
)
CHECKS = tuple(
    n for n in tracer.NAMES if n.startswith("icm_checker.") and n != "icm_checker.icm_report"
)


class BenchError(Exception):
    pass


def _on_alarm(signum, frame):
    raise BenchError("run exceeded %d s" % RUN_LIMIT_S)


def _on_term(signum, frame):
    raise SystemExit(128 + signum)


def spawn(spec: dict, workdir: str, tag: str) -> dict:
    """Run one child pass; adds wall, setup, cpu and peak RSS to its result,
    and the speed-normalized times (see ``normalize``)."""
    spec_path = os.path.join(workdir, tag + ".spec.json")
    result_path = os.path.join(workdir, tag + ".result.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    # PYTHONHASHSEED stays random, so hash-order dependence shows as a
    # digest mismatch between passes.
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONHASHSEED", "PYTHONPATH")}
    argv = [sys.executable, CHILD, spec_path, result_path]
    t0 = time.monotonic()
    pid = os.posix_spawn(
        sys.executable, argv, env, file_actions=[(os.POSIX_SPAWN_DUP2, 2, 1)]
    )
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall = time.monotonic() - t0
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise BenchError("pass %s: child exited with %d" % (tag, code))
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    result.update(
        wall=wall,
        setup=result["ready"] - t0,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
    )
    normalize(result)
    return result


def normalize(result: dict) -> None:
    """Scale the pass's times to the reference speed.

    The host's speed drifts by tens of percent within seconds, the same for
    every piece of code that runs then, so raw times of one commit spread
    more across runs than two commits differ.  The child reads the speed
    (``child.Sampler``) right after import, every SAMPLE_EVERY_S while it
    runs queries, and at the end.  A query's speed is the mean of the
    readings taken during it and of the one just before and just after it,
    relative to REF_SAMPLE_S; its normalized time ``q["norm"]`` is its time,
    readings taken out, divided by that speed.  ``setup_norm`` uses the
    first two readings, and ``wall_norm`` is set-up plus every query.
    """
    took = result["readings"]
    for q in result["queries"]:
        first, end = q["readings"]
        around = took[first - 1 : end + 1]
        q["norm"] = q["s"] * REF_SAMPLE_S * len(around) / sum(around)
    result["speed"] = statistics.median(took) / REF_SAMPLE_S
    result["setup_norm"] = result["setup"] * REF_SAMPLE_S * 2 / (took[0] + took[1])
    result["wall_norm"] = result["setup_norm"] + sum(q["norm"] for q in result["queries"])


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(message)


def preflight(workdir: str, tally: Tally) -> None:
    """Exit code per ok/err1/err2 family, and byte-identical output across
    two cold runs of the 50-file corpus."""
    files = sorted(f for f in os.listdir(CORPUS) if f.endswith(".icm"))
    spec = {
        "src": SRC,
        "queries": [
            ["run", os.path.join(CORPUS, f), "--json", "--seed", "0", "--trials", "3"]
            for f in files
        ],
        "trace": False,
        "sample": False,
    }
    runs = [spawn(spec, workdir, "corpus%d" % k)["queries"] for k in range(2)]
    expected = {"ok": 0, "err1": 1, "err2": 2}
    for f, first, second in zip(files, *runs):
        want = expected[f.split("_")[0]]
        for q in (first, second):
            tally.add(q["rc"] == want, "corpus %s: exit %d, expected %d" % (f, q["rc"], want))
        tally.add(first["digest"] == second["digest"], "corpus %s: output differs" % f)


def check_answers(wl: workloads.Workload, runs: list, tally: Tally) -> None:
    """Reference checks on the first run of each distinct query; every later
    run of the same query must match it byte for byte (which also covers
    traced against untraced, and hash-order dependence across processes).
    ``runs`` pairs each pass result with the argument vectors it ran."""
    if wl.name == "minors":
        replay = checks.MinorsReplay(SRC)
    elif wl.name == "gb-cold":
        reference = checks.SympyGroebner()
    first = {}
    for k, (result, queries) in enumerate(runs):
        for q, (argv, mine) in enumerate(zip(queries, result["queries"])):
            label = "pass %d %s" % (k, wl.labels[q])
            key = tuple(argv)
            if mine["rc"] != 0:
                tally.add(False, "%s: exit %d" % (label, mine["rc"]))
                continue
            if key in first:
                digest, verdict = first[key]
                if mine["digest"] != digest:
                    tally.add(False, "%s: output differs from its first run" % label)
                    continue
            else:
                text, expect = result["outputs"][q], wl.expect[q]
                if wl.name == "suites":
                    verdict = checks.check_suites(text, expect)
                elif wl.name == "minors":
                    verdict = replay(text, expect, argv[1])
                else:
                    verdict = reference(text, expect)
                first[key] = (mine["digest"], verdict)
            tally.add(verdict is None, "%s: %s" % (label, verdict))


def tail(samples: list):
    """The highest percentile with TAIL_BEYOND samples beyond it, and that
    percentile; the maximum when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def end_to_end(passes: list, probes: list, out: list) -> dict:
    query_s = [q["norm"] for p in passes for q in p["queries"]]
    tail_s, pct, beyond = tail(query_s)
    setups = [p["setup_norm"] for p in passes + probes]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_norm"] for p in passes),
        "query_p50_ms": 1000.0 * statistics.median(query_s),
        "query_tail_ms": 1000.0 * tail_s,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    counts = {
        "setup_s": "median of %d spawns" % len(setups),
        "wall_s": "median of %d passes" % len(passes),
        "query_p50_ms": "median of %d queries" % len(query_s),
        "query_tail_ms": "p%.1f of %d queries, %d beyond" % (pct, len(query_s), beyond),
        "peak_rss_mb": "median of %d passes" % len(passes),
    }
    for name, unit in END_TO_END:
        out.append("%-16s %12.4f %-3s (%s)" % (name, values[name], unit, counts[name]))
    out.append(
        "times above are scaled to the reference speed; per pass, raw wall_s / cpu_s"
        " / host speed (1 = reference, higher = slower) / scaled wall_s: %s"
        % ", ".join(
            "%.3f / %.3f / %.3f / %.3f" % (p["wall"], p["cpu"], p["speed"], p["wall_norm"])
            for p in passes
        )
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def layer_metrics(summary: dict) -> dict:
    names = summary["names"]

    def pick(name: str, field: str):
        return names[name][field]

    def total(group, field):
        return sum(names[n][field] for n in group)

    out = {}
    for name, fields in (
        ("ideal_engine.buchberger", ("calls", "self_s")),
        ("ideal_engine.s_polynomial", ("calls",)),
        ("ideal_engine.divide", ("calls", "self_s")),
        ("ideal_engine.ideal_intersect", ("calls", "self_s")),
        ("ideal_engine.ideal_quotient", ("calls",)),
        ("ideal_engine.ideal_quotient_ideal", ("calls",)),
        ("ideal_engine.saturate", ("calls", "incl_s")),
        ("invariants.grade", ("calls", "incl_s")),
        ("icm_checker.icm_report", ("calls",)),
        ("theorem_lab.run_trial", ("calls",)),
        ("cli_app.parse", ("self_s",)),
        ("cli_app.execute", ("self_s",)),
    ):
        for field in fields:
            out["%s.%s" % (name, field)] = pick(name, field)
    gb = names["ideal_engine.buchberger"]
    out["ideal_engine.buchberger.repeat_frac"] = gb["aux"] / gb["calls"] if gb["calls"] else 0.0
    out["ideal_engine.divide.terms_in"] = pick("ideal_engine.divide", "aux")
    out["ring_core.poly_arith.calls"] = total(POLY_ARITH, "calls")
    out["ring_core.poly_arith.self_s"] = total(POLY_ARITH, "self_s")
    finder = names["invariants.find_regular_element"]
    candidates = summary["by_parent"].get(
        ("ideal_engine.ideal_quotient", "invariants.find_regular_element"), 0
    )
    found = finder["calls"] - finder["raised"]
    out["invariants.regular_candidates"] = candidates
    out["invariants.regular_hit_ratio"] = found / candidates if candidates else 0.0
    out["invariants.monomial.self_s"] = total(MONOMIAL, "self_s")
    out["icm_checker.checks.self_s"] = total(CHECKS, "self_s")
    for k, sid in enumerate(workloads.SUITE_IDS):
        out["theorem_lab.verify.%s_s" % sid] = summary["incl_by_aux"].get(
            ("theorem_lab.run_suite", k), 0.0
        )
    return out


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if last.endswith("_s"):
        return "s"
    if last.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


def traced(plain: list, traced_passes: list, out: list) -> dict:
    per_pass = []
    for p in traced_passes:
        summary = tracer.summarize(tracer.load(p["spans"]))
        per_pass.append(layer_metrics(summary))
        out.append("traced pass: %d spans, %.3f s" % (summary["spans"], p["wall"]))
    values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    overhead = statistics.median(p["wall"] for p in traced_passes) / statistics.median(
        p["wall"] for p in plain
    ) - 1.0
    values["trace.overhead_frac"] = overhead
    out.append(
        "trace.overhead_frac %.4f (traced median of %d passes against plain median of %d)"
        % (overhead, len(traced_passes), len(plain))
    )
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}


def run(args, workdir: str) -> dict:
    out = []
    tally = Tally()
    preflight(workdir, tally)
    corpus_queries = tally.attempted
    nominal = NOMINAL_PASS_S[args.workload]
    if args.trace:
        count = max(1, round(args.seconds / (nominal * (1 + TRACED_PASS_FACTOR))))
    else:
        count = max(2, round(args.seconds / nominal))
    wl = workloads.build(args.workload, args.seed, workdir, count)

    def spec(k: int, trace: bool = False) -> dict:
        # Speed sampling would land in the layer spans, so traced runs go
        # without it, in their plain passes too.
        return {"src": SRC, "queries": wl.queries[k], "trace": trace, "sample": not args.trace}

    passes, traced_passes, probes = [], [], []
    for k in range(count):
        passes.append(spawn(spec(k), workdir, "plain%d" % k))
        if args.trace:
            traced_passes.append(spawn(spec(k, trace=True), workdir, "traced%d" % k))
    if not args.trace:
        empty = dict(spec(0), queries=[])
        probes = [
            spawn(empty, workdir, "probe%d" % k) for k in range(max(0, SETUP_SAMPLES - count))
        ]
    runs = [(p, wl.queries[k]) for k, p in enumerate(passes)]
    runs += [(p, wl.queries[k]) for k, p in enumerate(traced_passes)]
    check_answers(wl, runs, tally)

    out.append(
        "workload %s seed %d: %d plain + %d traced passes x %d queries, closed loop, 1 client"
        % (args.workload, args.seed, len(passes), len(traced_passes), len(wl.queries[0]))
    )
    if args.trace:
        metrics = traced(passes, traced_passes, out)
    else:
        metrics = end_to_end(passes, probes, out)
    if args.workload == "minors":
        for q, label in enumerate(wl.labels):
            t = statistics.median(p["queries"][q]["norm"] for p in passes)
            out.append("%-16s %12.4f s   (median of %d passes)" % (label + "_s", t, len(passes)))
    out.append(
        "fail_frac %.4f (%d failed of %d queries attempted, %d of them corpus pre-flight)"
        % (tally.failed / tally.attempted, tally.failed, tally.attempted, corpus_queries)
    )
    out.extend("FAILED: " + e for e in tally.errors[:20])
    print("\n".join(out))
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_PASS_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "icmlab", "cli_app.py")) or not os.path.isdir(CORPUS):
        print("icmlab sources or tests/corpus not found under %s" % ROOT, file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    signal.alarm(RUN_LIMIT_S)
    scratch = os.path.join(HERE, ".work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        report = run(args, workdir)
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
