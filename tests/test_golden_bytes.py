"""Byte stability of the CLI: in-process ``cli_app.main`` must reproduce the
recorded stdout, stderr and exit code of ``run --json --seed 0`` on every
corpus script, of ``verify <suite> --json --trials 16`` for every suite at
seeds 0, 1 and 7, and of ``run --json`` on the scripts in ``golden/``:
``icm J I`` with J the 2x2 minors of a generic 2xN matrix and I all
variables, for N = 3, 4, 5 over QQ and GF(32003) at seeds 10000-10002 and
N = 6 over QQ at seed 10000, and ``lex_sat_grade_icm``, ``sat``, ``grade``
and ``icm`` queries in lex-ordered rings over QQ and GF(32003) at seeds
10000-10002, and ``lex_colon_intersect``, ``intersect`` and ``colon``
queries (by one generator and by several, J = 0 and a unit in I included)
and an ideal declared as an intersection, in the same two lex rings at
seed 10000, and ``icm J I`` with J the Stanley-Reisner ideal of the
6-vertex RP^2 and I all variables over QQ, GF(2) and GF(3) at seeds
10000-10002: "yes" over QQ and GF(3), and grade 2, defect 1, "no" over
GF(2), since H_1(RP^2; k) is nonzero only in characteristic 2 (Reisner's
criterion), and ``katsura3_lex``, ``gb`` of katsura-3 in lex rings over QQ
and GF(32003), where it is zero-dimensional, and over GF(2), where it is
not, at seed 10000, and ``translated_2x4_qq`` and ``translated_2x4_gf``,
``icm J I`` with J the 2x2 minors of a generic 2x4 matrix after x_i -> x_i
+ i and y_i -> y_i - (i mod 2) and I the maximal ideal of that point, over
QQ and GF(32003) at seeds 10000-10002: an inhomogeneous chain, grade 5,
dims 5 and 0, "yes", and ``small_field_calculus``, ``sat`` and ``colon`` by
one generator and by two, ``intersect`` and ``icm`` over GF(2) in grevlex
and GF(3) in lex at seeds 10000 and 10001.
These scripts live in ``golden/``, not in ``corpus/``, so the corpus keeps
its 50 files.

The fixture ``golden/cli_bytes.json`` keeps the sha256 of each stream, so a
change that alters any output byte fails here.  A change meant to alter the
output regenerates it with ``PYTHONPATH=src python tests/test_golden_bytes.py
> tests/golden/cli_bytes.json`` and says why in its change log.
"""

import contextlib
import glob
import hashlib
import io
import json
import os

from icmlab.cli_app import main
from icmlab.theorem_lab import SUITE_IDS

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS_DIR = os.path.join(HERE, "corpus")
FIXTURE = os.path.join(HERE, "golden", "cli_bytes.json")
SEEDS = (10000, 10001, 10002)
GOLDEN = (
    ("minors_2x3_qq", SEEDS),
    ("minors_2x3_gf", SEEDS),
    ("minors_2x4_qq", SEEDS),
    ("minors_2x4_gf", SEEDS),
    ("minors_2x5_qq", SEEDS),
    ("minors_2x5_gf", SEEDS),
    ("minors_2x6_qq", (10000,)),
    ("lex_sat_grade_icm", SEEDS),
    ("lex_colon_intersect", (10000,)),
    ("rp2_qq", SEEDS),
    ("rp2_gf2", SEEDS),
    ("rp2_gf3", SEEDS),
    ("katsura3_lex", (10000,)),
    ("translated_2x4_qq", SEEDS),
    ("translated_2x4_gf", SEEDS),
    ("small_field_calculus", (10000, 10001)),
)


def _argvs():
    """Each recorded command line; corpus scripts are named relative to the
    corpus directory, the ``golden/`` scripts relative to ``tests/``."""
    for path in sorted(glob.glob(os.path.join(CORPUS_DIR, "*.icm"))):
        yield ["run", os.path.basename(path), "--json", "--seed", "0"]
    for suite in SUITE_IDS:
        for seed in (0, 1, 7):
            yield ["verify", suite, "--json", "--trials", "16", "--seed", str(seed)]
    for name, seeds in GOLDEN:
        for seed in seeds:
            yield ["run", "golden/%s.icm" % name, "--json", "--seed", str(seed)]


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _record(argv):
    """One entry: the command line, the digests of stdout and stderr, and
    the exit code of an in-process run."""
    real = list(argv)
    if real[0] == "run":
        real[1] = os.path.join(HERE if "/" in real[1] else CORPUS_DIR, real[1])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(real)
    return {
        "argv": list(argv),
        "stdout_sha256": _digest(out.getvalue()),
        "stderr_sha256": _digest(err.getvalue()),
        "exit": code,
    }


def test_cli_output_matches_recorded_bytes():
    with open(FIXTURE, "r", encoding="utf-8") as handle:
        recorded = json.load(handle)
    argvs = list(_argvs())
    assert [entry["argv"] for entry in recorded] == argvs
    assert len(argvs) == 50 + 3 * len(SUITE_IDS) + 41  # 41 runs of golden/ scripts
    changed = [" ".join(entry["argv"]) for entry in recorded if _record(entry["argv"]) != entry]
    assert not changed, "output bytes changed for: %s" % "; ".join(changed)


if __name__ == "__main__":
    print("[\n%s\n]" % ",\n".join(json.dumps(_record(argv)) for argv in _argvs()))
