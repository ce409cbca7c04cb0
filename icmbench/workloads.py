"""Inputs of the three workloads, made from the workload seed alone.

Each workload function writes its scripts into a work directory and returns a
``Workload``: the ``icm-lab`` argument vectors of one pass (one query each)
and, per query, what the output checks need to know about it.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

P = 32003
SUITE_IDS = (
    "quotient-transport",
    "subideal-transfer",
    "annihilator-transport",
    "grade-height",
    "cm-implies-icm",
    "ass-dimension",
    "localization-cm",
    "poly-extension",
)
SUITE_TRIALS = 16  # trials in one suites query
SUITE_QUERIES = 56  # suites queries per pass, a multiple of len(SUITE_IDS)
SUITE_ANCHORS = 8  # of them, the same in every pass
SEED_STRIDE = 10000  # query seeds of workload seed s: s * SEED_STRIDE + j
MINOR_SIZES = (3, 4)
MINOR_SEEDS = 3  # search seeds per minors run
RANDOM_SYSTEMS = 300

Terms = Dict[Tuple[int, ...], int]


@dataclass(frozen=True)
class GbSystem:
    """A polynomial system for ``gb``: integer coefficients, exponent tuples."""

    name: str
    variables: Tuple[str, ...]
    polys: Tuple[Terms, ...]
    p: int  # 0 for QQ
    order: str


@dataclass
class Workload:
    """``queries[k]`` is the list of argument vectors of pass k; ``expect``
    and ``labels`` say, per query of a pass, what the checks need and how the
    query is named."""

    name: str
    queries: List[List[List[str]]]
    expect: List[object]  # per query: (suite, trials), minors N, or a GbSystem
    labels: List[str]


def build(name: str, seed: int, workdir: str, passes: int) -> Workload:
    make = {"suites": suites, "minors": minors, "gb-cold": gb_cold}[name]
    return make(seed, workdir, passes)


def suites(seed: int, workdir: str, passes: int) -> Workload:
    """``verify <suite>`` queries, the suites in turn, each at its own seed.

    A suite's trials draw their instance shape (field, variables, kind of
    ideal) from the trial seed alone, so separate seeds per query keep the
    suites' costs independent; trial costs are heavy-tailed, and the seed
    moves a run's total less the more independent trials it holds.  The
    first SUITE_ANCHORS queries are the same in every pass, so the answers
    of passes can be compared byte for byte; the others are fresh in each
    pass, so a run covers as many distinct trials as its time allows."""
    fresh = SUITE_QUERIES - SUITE_ANCHORS
    base = seed * SEED_STRIDE
    if SUITE_ANCHORS + passes * fresh > SEED_STRIDE:
        raise ValueError("too many passes for the suites seed layout")
    queries = []
    for k in range(passes):
        seeds = list(range(base, base + SUITE_ANCHORS))
        seeds += range(base + SUITE_ANCHORS + k * fresh, base + SUITE_ANCHORS + (k + 1) * fresh)
        queries.append(
            [
                ["verify", SUITE_IDS[j % len(SUITE_IDS)], "--json", "--seed", str(s)]
                + ["--trials", str(SUITE_TRIALS)]
                for j, s in enumerate(seeds)
            ]
        )
    expect = [(SUITE_IDS[j % len(SUITE_IDS)], SUITE_TRIALS) for j in range(SUITE_QUERIES)]
    labels = ["%s_%d" % (suite, j) for j, (suite, _) in enumerate(expect)]
    return Workload("suites", queries, expect, labels)


def _field(p: int) -> str:
    return "QQ" if p == 0 else "GF(%d)" % p


def minors(seed: int, workdir: str, passes: int) -> Workload:
    """icm J I with J the 2x2 minors of a generic 2xN matrix, I all variables.

    The seed drives the regular-element search, and one search seed can cost
    20 % more than another, so the passes of a run cycle through up to
    MINOR_SEEDS search seeds; each is used by at least two passes, whose
    answers must then match byte for byte."""
    scripts, expect, labels = [], [], []
    for n in MINOR_SIZES:
        xs = ["x%d" % i for i in range(1, n + 1)]
        ys = ["y%d" % i for i in range(1, n + 1)]
        dets = [
            "%s*%s - %s*%s" % (xs[i], ys[j], xs[j], ys[i])
            for i in range(n)
            for j in range(i + 1, n)
        ]
        for p in (0, P):
            label = "icm_2x%d_%s" % (n, "qq" if p == 0 else "gf")
            path = os.path.join(workdir, label + ".icm")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(
                    "ring R = %s[%s];\nideal J = %s;\nideal I = %s;\nicm J I;\n"
                    % (_field(p), ", ".join(xs + ys), ", ".join(dets), ", ".join(xs + ys))
                )
            scripts.append(path)
            expect.append(n)
            labels.append(label)
    distinct = max(1, min(MINOR_SEEDS, passes // 2))
    queries = [
        [["run", path, "--json", "--seed", str(seed * SEED_STRIDE + k % distinct)] for path in scripts]
        for k in range(passes)
    ]
    return Workload("minors", queries, expect, labels)


def _poly_text(variables, terms: Terms) -> str:
    out = []
    for mono, c in sorted(terms.items(), reverse=True):
        factors = [
            v if e == 1 else "%s^%d" % (v, e) for v, e in zip(variables, mono) if e
        ]
        body = "*".join([str(abs(c))] + factors) if abs(c) != 1 or not factors else "*".join(factors)
        sign = "-" if c < 0 else "+"
        out.append((sign, body))
    text = ("-" if out[0][0] == "-" else "") + out[0][1]
    return text + "".join(" %s %s" % (s, b) for s, b in out[1:])


def cyclic(n: int) -> Tuple[Tuple[str, ...], Tuple[Terms, ...]]:
    polys = []
    for k in range(1, n):
        terms: Terms = {}
        for i in range(n):
            exps = [0] * n
            for j in range(k):
                exps[(i + j) % n] += 1
            terms[tuple(exps)] = 1
        polys.append(terms)
    polys.append({(1,) * n: 1, (0,) * n: -1})
    return tuple("x%d" % i for i in range(n)), tuple(polys)


def katsura(n: int) -> Tuple[Tuple[str, ...], Tuple[Terms, ...]]:
    v = tuple("u%d" % i for i in range(n + 1))
    polys = []
    for m in range(n):
        terms: Terms = {}
        for l in range(-n, n + 1):
            a, b = abs(l), abs(m - l)
            if b > n:
                continue
            exps = [0] * (n + 1)
            exps[a] += 1
            exps[b] += 1
            terms[tuple(exps)] = terms.get(tuple(exps), 0) + 1
        lin = [0] * (n + 1)
        lin[m] = 1
        terms[tuple(lin)] = terms.get(tuple(lin), 0) - 1
        polys.append(terms)
    last: Terms = {tuple(int(i == j) for j in range(n + 1)): 1 if i == 0 else 2 for i in range(n + 1)}
    last[(0,) * (n + 1)] = -1
    polys.append(last)
    return v, tuple(polys)


def classical_systems() -> List[GbSystem]:
    out = []
    for name, (v, polys) in (
        ("cyclic5", cyclic(5)),
        ("katsura4", katsura(4)),
        ("katsura5", katsura(5)),
    ):
        for p in (0, P):
            out.append(GbSystem("%s_%s" % (name, "qq" if p == 0 else "gf"), v, polys, p, "grevlex"))
    v, polys = katsura(4)
    out.append(GbSystem("katsura4_gf_lex", v, polys, P, "lex"))
    return out


def random_system(rng: random.Random, k: int) -> GbSystem:
    """3-4 variables, 2-3 generators of 2-4 terms, total degree at most 3.

    Lex appears only over GF(p) in 3 variables: lex over QQ, or in more
    variables, can blow up far beyond the size of everything else here.
    """
    n = rng.choice((3, 4))
    p = rng.choice((0, P))
    order = "lex" if p and n == 3 and rng.random() < 0.5 else "grevlex"
    polys = []
    for _ in range(rng.choice((2, 3))):
        size = rng.randint(2, 4)
        terms: Terms = {}
        while len(terms) < size:
            exps = [0] * n
            for _ in range(rng.randint(0, 3)):
                exps[rng.randrange(n)] += 1
            terms[tuple(exps)] = rng.choice([c for c in range(-9, 10) if c])
        polys.append(terms)
    return GbSystem("random%03d" % k, tuple("x%d" % i for i in range(n)), tuple(polys), p, order)


def gb_cold(seed: int, workdir: str, passes: int) -> Workload:
    rng = random.Random(seed)
    systems = classical_systems() + [random_system(rng, k) for k in range(RANDOM_SYSTEMS)]
    queries = []
    for system in systems:
        path = os.path.join(workdir, system.name + ".icm")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                "ring R = %s[%s] order %s;\nideal J = %s;\ngb J;\n"
                % (
                    _field(system.p),
                    ", ".join(system.variables),
                    system.order,
                    ", ".join(_poly_text(system.variables, t) for t in system.polys),
                )
            )
        queries.append(["run", path, "--json", "--seed", str(seed)])
    return Workload("gb-cold", [queries] * passes, systems, [s.name for s in systems])
