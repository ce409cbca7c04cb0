"""One benchmark pass in a fresh interpreter.

Usage: python3 child.py SPEC.json RESULT.json

SPEC holds the icmlab source directory, the list of ``icm-lab`` argument
vectors to run (one query each), whether to trace and whether to sample
the host's speed.  The pass imports icmlab cold, stamps the moment it is
ready for its first query (``ready``, on the system-wide monotonic clock so
the parent can subtract its spawn time), then calls
``icmlab.cli_app.main`` once per query with stdout and stderr captured.
RESULT gets each query's exit code, duration, output digest and stdout.

Speed sampling: the shared host's speed drifts by tens of percent within
seconds, the same for every piece of code that runs then.  With ``sample``
on, an interval timer interrupts the pass every ``SAMPLE_EVERY_S``, also in
the middle of a query, and its handler times a fixed kernel (``Sampler``).
Each reading is kept with its start time; the time spent in readings is
taken out of the query it fell into, and the parent divides each query's
time by the speed read during and around it.
"""
import contextlib
import gc
import hashlib
import io
import json
import os
import signal
import sys
import time

SAMPLE_EVERY_S = 0.025


def _kernel() -> int:
    """Sparse polynomial product mod p over exponent tuples: the dict, tuple
    and small-int work that dominates icmlab, in code icmlab cannot change."""
    p = 32003
    a = {(i % 5, i // 5 % 4, i % 3): i * 7919 % p + 1 for i in range(60)}
    b = {(i % 4, i % 6, i // 7 % 3): i * 104729 % p + 1 for i in range(30)}
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = (ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2])
            out[m] = (out.get(m, 0) + ca * cb) % p
    return len(sorted(out.items(), reverse=True))


class Sampler:
    """Speed readings: ``starts[i]`` and ``took[i]`` are the clock at the
    start of reading i and the seconds its kernel took.  The collector is off
    during a reading, so the program's heap does not leak into it."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.starts = []
        self.took = []

    def read(self, *_) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = self.clock()
        _kernel()
        t1 = self.clock()
        if enabled:
            gc.enable()
        self.starts.append(t0)
        self.took.append(t1 - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.read)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main() -> None:
    spec_path, result_path = sys.argv[1], sys.argv[2]
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    import icmlab.cli_app  # noqa: E402  (the cold import is part of set-up)

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    clock = time.perf_counter
    ready = time.monotonic()
    sampler = Sampler(clock)
    sampler.read()
    if spec["sample"]:
        sampler.start()
    queries, outputs = [], []
    for qid, argv in enumerate(spec["queries"]):
        if tracer is not None:
            tracer.qid = qid
        out, err = io.StringIO(), io.StringIO()
        first = len(sampler.took)
        t0 = clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = icmlab.cli_app.main(argv)
        t1 = clock()
        # Readings first..end-1 fell inside this query; the timer can fire
        # between the clock reads and the bookkeeping, hence the trims.
        end = len(sampler.took)
        while first < end and sampler.starts[first] < t0:
            first += 1
        while end > first and sampler.starts[end - 1] >= t1:
            end -= 1
        elapsed = t1 - t0 - sum(sampler.took[first:end])
        text = out.getvalue()
        digest = hashlib.sha256(
            ("%d\0%s\0%s" % (rc, text, err.getvalue())).encode()
        ).hexdigest()
        queries.append(
            {"rc": rc, "s": elapsed, "digest": digest, "readings": [first, end]}
        )
        outputs.append(text)
    sampler.stop()
    sampler.read()
    result = {
        "ready": ready,
        "readings": sampler.took,
        "queries": queries,
        "outputs": outputs,
    }
    if tracer is not None:
        result["spans"] = tracer.dump(result_path + ".spans")
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
