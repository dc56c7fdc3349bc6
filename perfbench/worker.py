"""One pass of one workload, in a fresh process.

run.py starts this script once per pass, with PYTHONHASHSEED and PYTHONPATH
set, writes the request as JSON to its stdin and reads one JSON object from
its stdout. A pass builds the workload's fixtures (timed as ``setup_s``, from
before ``import aalogic``), runs the operations one after another (each
timed; ``wall_s`` is their sum), reads peak memory and cache sizes, and only
then checks every verdict against its known answer, so the checking costs no
measured time. All times are scaled to a reference machine speed, see
``speed``.
"""

from __future__ import annotations

import itertools
import json
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import oracle
import queries

RAISED = "raised"

# Inputs of one pass at scale 1.
STREAM_LENGTH = 2000         # consequence queries
KIND_III_SAMPLE = 50_000     # kind-(iii) axioms checked in B2 and in H3
SUITE_SEEDS = 4              # seeds of each institution suite

# The shared machines this benchmark runs on change speed every few seconds:
# a fixed piece of interpreter work takes from 0.34 to 0.71 ms on one 2 vCPU
# container within a minute. Every time metric is therefore scaled to a
# reference speed: an operation's duration is multiplied by
# REFERENCE_CALIBRATION_S / (the duration of that same fixed work, measured
# every CALIBRATION_INTERVAL_S while the operation runs; see Ops).
REFERENCE_CALIBRATION_S = 0.0005
CALIBRATION_INTERVAL_S = 0.2
SPEED_WINDOW = 5             # readings behind an operation shorter than the interval

# institution suites per suite seed: (kind, samples). The fault-injected
# suites are sized so that each meets its tampered entry often enough to
# report a violation (the reduct fault shows in about 1 sample in 150).
CLEAN_SUITES = (("If", 1000), ("InsAL", 1000), ("InsLAL", 1000))
FAULT_SUITES = (("If", 3000), ("InsAL", 500), ("InsLAL", 500))


def _fib(n: int) -> int:
    return n if n < 2 else _fib(n - 1) + _fib(n - 2)


def speed() -> float:
    """How much faster than the reference the machine runs right now: the
    reference time of a fixed piece of dict, tuple, set and call work over
    its measured time (the median of three)."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        counts: dict = {}
        for i in range(1000):
            key = (i % 97, i % 13)
            counts[key] = counts.get(key, 0) + 1
            frozenset((i, i + 1))
        _fib(12)
        times.append(time.perf_counter() - start)
    return REFERENCE_CALIBRATION_S / sorted(times)[1]


class Ops:
    """The operations of a pass in order: kind, the query they belong to,
    verdict and duration at the reference speed. An operation that raises
    gets the verdict ``RAISED``, which no known answer accepts.

    While operations run, an interval timer measures ``speed()`` every
    CALIBRATION_INTERVAL_S, also in the middle of a long operation. An
    operation's duration leaves out those measurements and is scaled by the
    median speed measured during it, or, when none was, by the median of the
    last SPEED_WINDOW readings before it."""

    def __init__(self):
        self.kinds: list[str] = []
        self.tags: list = []
        self.verdicts: list = []
        self.seconds: list[float] = []
        self.errors: list[str] = []
        self.first = self.last = None
        self.speeds: list[float] = []
        self._measuring = 0.0  # time spent in speed() since the pass began

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self.speeds.append(speed())
        self._measuring += time.perf_counter() - start

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S, CALIBRATION_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def run(self, kind: str, tag, fn):
        sampled, measuring = len(self.speeds), self._measuring
        start = time.perf_counter()
        try:
            verdict = fn()
        except Exception as exc:  # counted as a wrong answer, the pass goes on
            verdict = RAISED
            if len(self.errors) < 5:
                self.errors.append(f"{kind}: {exc!r}")
        end = time.perf_counter()
        during = self.speeds[sampled:] or self.speeds[-SPEED_WINDOW:]
        if self.first is None:
            self.first = start
        self.last = end
        self.kinds.append(kind)
        self.tags.append(tag)
        self.verdicts.append(verdict)
        self.seconds.append((end - start - (self._measuring - measuring)) * statistics.median(during))
        return verdict

    def flip_first(self, kind: str) -> None:
        """Negate the first boolean verdict of ``kind``, turning it against
        its known answer."""
        for i, k in enumerate(self.kinds):
            if k == kind and self.verdicts[i] is not RAISED:
                self.verdicts[i] = not self.verdicts[i]
                return


# ---------------------------------------------------------------------------
# consequence: a closed loop of single queries from one client
# ---------------------------------------------------------------------------

def consequence_setup(request):
    from aalogic import corpus

    context = corpus.classical_context()
    return {"ipc": corpus.ipc_logic(), "cpc": corpus.cpc_logic(), "context": context,
            "contexts": [context]}


def consequence_run(fx, request, ops):
    from aalogic.glivenko import glivenko_equivalence
    from aalogic.provers import kripke_countermodel
    from aalogic.semantics import BUILTIN_SIGNATURE, consequence
    from aalogic.syntax import parse_formula

    def parse(text):
        return parse_formula(BUILTIN_SIGNATURE, text)

    ctx = fx["context"]
    for tag, (kind, gamma, phi) in enumerate(fx["queries"]):
        if kind == "glivenko":
            ops.run(kind, tag, lambda: glivenko_equivalence(ctx, [parse(g) for g in gamma], parse(phi)))
            continue
        verdict = ops.run(kind, tag, lambda: consequence(fx[kind], [parse(g) for g in gamma], parse(phi)))
        if kind == "ipc" and verdict is False:
            ops.run("countermodel", tag,
                    lambda: kripke_countermodel([parse(g) for g in gamma], parse(phi), 4))


def consequence_check(fx, request, ops):
    """cpc verdicts equal the two-element matrix; Glivenko pairs agree; an
    ipc-provable query is refuted by no Heyting corpus matrix; an
    ipc-unprovable one is refuted by such a matrix or by the returned Kripke
    model, and is left undecided when neither refutes it."""
    stream = fx["queries"]
    known = queries.known_answers(stream)
    models = {tag: v for kind, tag, v in zip(ops.kinds, ops.tags, ops.verdicts) if kind == "countermodel"}
    wrong = undecided = 0
    for kind, tag, verdict in zip(ops.kinds, ops.tags, ops.verdicts):
        if verdict is RAISED:
            wrong += 1
        elif kind == "cpc":  # known: valid in the two-element matrix
            wrong += verdict != known[tag]
        elif kind == "glivenko":
            wrong += verdict[0] != verdict[1]
        elif kind == "ipc":  # known: refuted by a Heyting corpus matrix
            if verdict:
                wrong += known[tag]
            elif not known[tag] and models.get(tag) in (None, RAISED):
                undecided += 1
        elif verdict is not None:  # a countermodel must refute its query
            _, gamma, phi = stream[tag]
            wrong += not oracle.kripke_refutes(
                verdict.worlds, verdict.up, verdict.valuation, verdict.world,
                [oracle.parse(g) for g in gamma], oracle.parse(phi))
    distinct = len({(k, tuple(g), p) for k, g, p in stream})
    info = {"queries": len(stream), "repeated_share": 1 - distinct / len(stream),
            "countermodels_found": sum(v not in (None, RAISED) for v in models.values()),
            "countermodel_requests": len(models)}
    return wrong, undecided, info


# ---------------------------------------------------------------------------
# algebraization: the paper's algebraizability, Lindenbaum and quasivariety
# claims
# ---------------------------------------------------------------------------

def algebraization_setup(request):
    from aalogic import corpus

    return {"cpc": corpus.cpc_logic(), "ipc": corpus.ipc_logic(), "pair": corpus.classical_pair(),
            "perturbed": corpus.perturbed_pair(), "b2": corpus.b2(), "h3": corpus.h3(),
            "contexts": []}


def algebraization_run(fx, request, ops):
    from aalogic.algebraization import check_bp_conditions, is_lindenbaum, qv_axioms
    from aalogic.provers import quasiidentity_holds

    cpc, ipc, pair = fx["cpc"], fx["ipc"], fx["pair"]
    ops.run("bp-ipc", None, lambda: check_bp_conditions(ipc, pair, 2, 2))
    ops.run("bp-cpc", None, lambda: check_bp_conditions(cpc, pair, 2, 2))
    ops.run("bp-perturbed", None, lambda: check_bp_conditions(cpc, fx["perturbed"], 2, 2))
    ops.run("lindenbaum-ipc", None, lambda: is_lindenbaum(ipc, pair, 2, 2))
    ops.run("lindenbaum-cpc", None, lambda: is_lindenbaum(cpc, pair, 2, 2))
    axioms = ops.run("qv-axioms", None, lambda: qv_axioms(cpc, pair, depth=3, num_vars=2))
    if axioms is RAISED:
        return
    fx["axioms"] = axioms
    size = max(1, round(KIND_III_SAMPLE * request["scale"]))
    fx["sample"] = sample = _axiom_sample(axioms, request["seed"], size)
    for name in ("b2", "h3"):
        A = fx[name]
        for i in sample:
            q = axioms[i]
            ops.run(name, i, lambda: quasiidentity_holds(A, q.premises, q.conclusion))


def _axiom_sample(axioms, seed: int, size: int) -> list[int]:
    """Every kind-(i) and kind-(ii) axiom and a seeded sample of the
    kind-(iii) ones, in emission order."""
    fixed = [i for i, q in enumerate(axioms) if q.kind != "iii"]
    third = [i for i, q in enumerate(axioms) if q.kind == "iii"]
    return sorted(fixed + random.Random(seed).sample(third, min(size, len(third))))


def algebraization_check(fx, request, ops):
    """Both logics pass (a)-(e) and are Lindenbaum; the perturbed pair fails
    (b) with a witness; each checked axiom holds in B2 (verdict and oracle
    agree on that) and gets the oracle's verdict in H3, where the kind-(ii)
    axiom holds and at least one kind-(iii) axiom fails."""
    b2, h3 = oracle.chain(2, 2), oracle.chain(3, 2)
    memo: dict = {}

    def holds(A, q):
        prem = [(oracle.from_formula(e.lhs, memo), oracle.from_formula(e.rhs, memo)) for e in q.premises]
        concl = (oracle.from_formula(q.conclusion.lhs, memo), oracle.from_formula(q.conclusion.rhs, memo))
        return A.quasi_identity_holds(prem, concl)

    wrong = 0
    info: dict = {}
    axioms = fx.get("axioms", ())
    h3_failing = 0
    for kind, tag, v in zip(ops.kinds, ops.tags, ops.verdicts):
        if v is RAISED:
            wrong += 1
        elif kind in ("bp-ipc", "bp-cpc"):
            wrong += not v.passed
            info[f"{kind}.universe"] = v.universe_size
            info[f"{kind}.classes"] = v.class_count
            info[f"{kind}.instances"] = {c: r.instances for c, r in v.conditions.items()}
        elif kind == "bp-perturbed":
            b = v.conditions.get("b")
            wrong += b is None or b.passed or b.witness is None
        elif kind.startswith("lindenbaum"):
            wrong += not v.passed
            info[f"{kind}.instances"] = v.instances
        elif kind == "qv-axioms":
            kinds = [q.kind for q in v]
            wrong += kinds.count("ii") != 1 or "i" not in kinds
            info["axioms"] = len(v)
        elif kind == "b2":
            wrong += v is not True or not holds(b2, axioms[tag])
        else:
            q = axioms[tag]
            wrong += v != (True if q.kind == "ii" else holds(h3, q))
            h3_failing += q.kind == "iii" and v is False
    if "sample" in fx:
        wrong += h3_failing == 0
        info["axioms_checked"] = len(fx["sample"])
        info["h3_failing_kind_iii"] = h3_failing
    return wrong, 0, info


# ---------------------------------------------------------------------------
# institutions: satisfaction-condition suites, Leibniz congruences, adjoints
# ---------------------------------------------------------------------------

def institutions_setup(request):
    from aalogic import corpus

    seen: dict = {}
    for name, A in corpus.heyting_corpus(4) + corpus.boolean_corpus(4):
        seen.setdefault(A, name)
    seen.setdefault(corpus.lukasiewicz3(), "l3")
    clean = corpus.classical_corpus()
    faults = {
        "If": corpus.corrupted_reduct_corpus(),
        "InsAL": corpus.corrupted_adjoint_filter_corpus(),
        "InsLAL": corpus.corrupted_adjoint_algebra_corpus(),
    }
    return {
        "clean": clean,
        "faults": faults,
        "contexts": [ctx for c in (clean, *faults.values()) for _, ctx in c.contexts],
        "subsets": [(A, F) for A in seen for k in range(A.size + 1)
                    for F in itertools.combinations(range(A.size), k)],
        "heyting": [H for _, H in corpus.heyting_corpus()],
    }


def institutions_run(fx, request, ops):
    from aalogic.algebra import leibniz, leibniz_bruteforce
    from aalogic.glivenko import find_adjoint_report
    from aalogic.institutions import institution_report

    rng = random.Random(request["seed"])
    for seed in [rng.randrange(2**31) for _ in range(max(1, round(SUITE_SEEDS * request["scale"])))]:
        for kind, samples in CLEAN_SUITES:
            ops.run(f"clean-{kind}", None,
                    lambda: institution_report(kind, fx["clean"], samples=samples, seed=seed))
        for kind, samples in FAULT_SUITES:
            ops.run(f"fault-{kind}", None,
                    lambda: institution_report(kind, fx["faults"][kind], samples=samples, seed=seed))
        # once per suite seed, so that the Leibniz comparisons are most of the
        # operations and the median latency falls among them, not between
        # two kinds of operation
        for A, F in fx["subsets"]:
            ops.run("leibniz", None, lambda: leibniz(A, F) == leibniz_bruteforce(A, F))
    for H in fx["heyting"]:
        ops.run("adjoint", None, lambda: find_adjoint_report(H).passed)


def institutions_check(fx, request, ops):
    """Clean suites report no violation; each fault-injected suite reports at
    least one, each with a witness sentence; the Leibniz congruence equals
    the brute-force one; every adjoint report passes."""
    wrong = 0
    violations = dict.fromkeys((f"fault-{k}" for k, _ in FAULT_SUITES), 0)
    for kind, v in zip(ops.kinds, ops.verdicts):
        if v is RAISED:
            wrong += 1
        elif kind.startswith("clean"):
            wrong += bool(v.violations)
        elif kind.startswith("fault"):
            wrong += not v.violations or any("phi" not in x and "conclusion" not in x for x in v.violations)
            violations[kind] += len(v.violations)
        else:
            wrong += v is not True
    info = {"subsets": len(fx["subsets"]), "heyting_algebras": len(fx["heyting"]),
            "universe_sizes": sorted({A.size for A, _ in fx["subsets"]} | {H.size for H in fx["heyting"]}),
            **violations}
    return wrong, 0, info


# per workload: set-up, pass, check, and the kind of operation whose verdict
# the self-test flips
WORKLOADS = {
    "consequence": (consequence_setup, consequence_run, consequence_check, "cpc"),
    "algebraization": (algebraization_setup, algebraization_run, algebraization_check, "b2"),
    "institutions": (institutions_setup, institutions_run, institutions_check, "leibniz"),
}


def _size(owner, attr: str) -> int:
    """Entries of a package cache, or -1 when the package no longer has it."""
    cache = getattr(owner, attr, None)
    return -1 if cache is None else len(cache)


def cache_sizes(contexts) -> dict[str, int]:
    """Sizes of the intern pool, the sequent memo, the theorem cache and the
    adjoint caches of the workload's contexts."""
    from aalogic import algebra, provers, syntax

    adjoint = [_size(ctx, "_adjoint_cache") for ctx in contexts]
    return {
        "syntax.intern_nodes": _size(syntax.App, "_pool") + _size(syntax.Var, "_pool"),
        "provers.sequent_memo_entries": _size(provers, "_sequent_memo"),
        "algebra.theorem_cache_entries": _size(algebra, "_theorem_cache"),
        "glivenko.adjoint_cache_entries": -1 if -1 in adjoint else sum(adjoint),
    }


def main() -> None:
    request = json.loads(sys.stdin.read())
    stream = None
    if request["workload"] == "consequence":
        stream = queries.stream(request["seed"], max(1, round(STREAM_LENGTH * request["scale"])))
    before = speed()
    started = time.perf_counter()
    import aalogic
    import aalogic.cli  # noqa: F401  (a command-line user pays this import too)

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(aalogic.__file__).resolve().parent.parent != src:
        sys.exit(f"aalogic was imported from {aalogic.__file__}, not from {src}")
    setup, run, check, flip_kind = WORKLOADS[request["workload"]]
    fx = setup(request)
    fx["queries"] = stream
    setup_seconds = time.perf_counter() - started
    out = {"setup_s": setup_seconds * (before + speed()) / 2}
    if not request.get("setup_only"):
        tracer = None
        if request.get("trace"):
            import spans

            tracer = spans.Tracer()
            tracer.install()
        with Ops() as ops:
            run(fx, request, ops)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["caches"] = cache_sizes(fx["contexts"])
        if tracer is not None:
            out["layers"] = tracer.summary()
        if request.get("flip"):
            ops.flip_first(flip_kind)
        out["wrong"], out["undecided"], out["info"] = check(fx, request, ops)
        seconds = ops.seconds
        cuts = statistics.quantiles(seconds, n=100, method="inclusive") if len(seconds) > 1 else seconds * 99
        out.update(
            ops=len(seconds),
            wall_s=sum(seconds),
            raw_wall_s=ops.last - ops.first,
            speed=statistics.median(ops.speeds),
            query_p50_ms=cuts[49] * 1e3,
            query_p99_ms=cuts[98] * 1e3,
            errors=ops.errors,
        )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
