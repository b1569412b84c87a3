"""The three workloads: their operations, inputs and output checks.

A workload is built in two steps.  draw(M, seed, size) is the benchmark's
own work: it picks the inputs from the seed and computes the reference
answers.  setup(M, drawn) is the package's work a user pays before the
first operation (fixture building, parsing machine files, compiling the
mirror for the stream models); setup_s times it.  setup returns the
operations of one round, always in the same order.

An operation is one call into a public entry point.  Its prepare() builds
fresh inputs outside the timed region (machines memoize verdicts on
themselves, so every operation gets its own copy) and returns
(call, check): call() is the timed call, check(result, exc) returns None
when the output is right and the reason otherwise.  Operations that fail
because of a defect already on record carry it in known_defect.
"""

import contextlib
import copy
import io
import os
import random

from reference import (
    copy_output,
    dma_reference,
    is_copyless_machine,
    mirror_formula_truth,
    mirror_output,
    power_cycle_of_word,
    reach_closure,
    sst_reference,
    values_after,
    walk_value,
)

NO_RULE = "compiled alternating copier has no output rule (F == {}) and rejects every word"
FOREIGN = "compare raises KeyError on a corpus word with a letter outside the machine's alphabet"
WINDOW = "run_fot raises 'window exhausted' for k above 2048"


class Op:
    __slots__ = ("label", "subject", "prepare", "known_defect")

    def __init__(self, label, subject, prepare, known_defect=None):
        self.label = label
        self.subject = subject
        self.prepare = prepare
        self.known_defect = known_defect


class Drawn:
    """What draw() picked, plus a summary for the log."""

    def __init__(self, size, summary, **items):
        self.size = size
        self.summary = summary
        self.__dict__.update(items)


def _verdict_check(expected, recheck):
    """Check a (verdict, witness) answer; a negative witness must also
    recheck through matrices built directly from the word."""

    def check(result, exc):
        if exc is not None:
            return "raised %r" % (exc,)
        if tuple(result) != expected:
            return "got %r, expected %r" % (result, expected)
        if not expected[0] and not recheck(expected[1]):
            return "witness %r does not recheck" % (expected[1],)
        return None

    return check


def _expected(witness):
    return (witness is None, witness)


def _cycles(matrix_of, w, limit):
    n = power_cycle_of_word(matrix_of, w, limit)
    return n is not None and n > 1


# ---------------------------------------------------------------------------
# decide


# The draw follows a fixed template, so that every seed gets machines of
# the same shapes and monoid sizes: a round then costs about the same, and
# its latency percentiles sit in the same place, whatever the seed.  The
# SST template is the acceptance suite's c08 sweep (the first 100 machines
# of random_copyless_sst at seed 12); the DMA template is the first 40 DMAs
# of the generator at seed "dma:template".  A template slot takes the first
# candidate of the seeded draw with the same number of states (and
# variables) and a monoid size within 15% of the slot's.  The c08 machine
# with 10,788 elements would dominate a round on its own, so slots above
# HEAVY elements become one slot of HEAVY elements, 4 states and 3
# variables (the widest shape the generator makes): the heavy tail, about
# a third of a round.  Slots of FIXED or more elements (the heavy one and
# two of about 1100) are filled from the stream "fixed" instead of the
# seeded one, so every seed gets the same machines there.  Those few
# machines take half a round; drawn afresh, their sizes moved a round's
# cost and the peak memory by about 10% between seeds.
TEMPLATE_SEED = 12
SSTS = 100
DMAS = 40
HEAVY = 3000
FIXED = 1000
TOLERANCE = 0.15
TINY_SSTS = 8
TINY_DMAS = 5
MAX_CANDIDATES = 50000


def random_dma(M, rng, max_states=5, alphabet="ab"):
    """Random deterministic Muller automaton with one or two accepting sets."""
    n = rng.randint(2, max_states)
    delta = {(q, a): rng.randrange(n) for q in range(n) for a in alphabet}
    sets = []
    for _ in range(rng.randint(1, 2)):
        members = frozenset(q for q in range(n) if rng.random() < 0.5)
        sets.append(members or frozenset([rng.randrange(n)]))
    return M.muller.Dma(range(n), alphabet, 0, delta, sets)


def _fill(slots, candidates):
    """Fill each (shape, size) slot with the first candidate, in draw order,
    of that shape and a size within TOLERANCE; returns entries in slot
    order and the number of candidates drawn."""
    open_slots = {}
    for i, (shape, size) in enumerate(slots):
        open_slots.setdefault(shape, []).append((size, i))
    picked = [None] * len(slots)
    left = len(slots)
    for n, (shape, size, entry) in enumerate(candidates):
        if n >= MAX_CANDIDATES:
            break
        for j, (want, i) in enumerate(open_slots.get(shape, ()) if size else ()):
            if abs(size - want) <= TOLERANCE * want:
                picked[i] = entry
                del open_slots[shape][j]
                left -= 1
                break
        if not left:
            return picked, n + 1
    raise RuntimeError("the draw did not fill within %d candidates" % MAX_CANDIDATES)


def _sst_candidates(M, rng, caps):
    """(shape, flow-monoid size, entry) per random copyless SST; the size is
    None above the cap of its shape."""
    n = 0
    while True:
        state = rng.getstate()
        t = M.fixtures.random_copyless_sst(rng)
        shape = (len(t.states), len(t.variables))
        ref = sst_reference(t, cap=caps.get(shape, 0))
        if ref is None:
            yield shape, None, None
        else:
            yield shape, len(ref), {
                "index": n, "state": state, "size": len(ref),
                "copyless": is_copyless_machine(t),
                "one_bounded": _expected(ref.one_bounded_witness()),
                "aperiodic": _expected(ref.aperiodicity_witness())}
        n += 1


def _dma_candidates(M, rng, caps):
    while True:
        state = rng.getstate()
        d = random_dma(M, rng)
        ref = dma_reference(d, cap=caps.get(len(d.states), 0))
        if ref is None:
            yield len(d.states), None, None
        else:
            yield len(d.states), len(ref), {
                "state": state, "size": len(ref),
                "aperiodic": _expected(ref.aperiodicity_witness())}


def _caps(slots):
    caps = {}
    for shape, size in slots:
        caps[shape] = max(caps.get(shape, 0), int(size * (1 + TOLERANCE)) + 1)
    return caps


def sst_template(M, count):
    cap = int(HEAVY * (1 + TOLERANCE)) + 1
    caps = {(q, x): cap for q in (2, 3, 4) for x in (1, 2, 3)}
    candidates = _sst_candidates(M, random.Random(TEMPLATE_SEED), caps)
    slots = []
    for _ in range(count):
        shape, size, _entry = next(candidates)
        slots.append((shape, size) if size is not None else ((4, 3), HEAVY))
    return slots


def dma_template(M, count):
    candidates = _dma_candidates(M, random.Random("dma:template"),
                                 {q: 10 ** 6 for q in range(2, 6)})
    return [next(candidates)[:2] for _ in range(count)]


def _histogram(sizes):
    """Counts per power-of-4 size bucket."""
    hist = {}
    for s in sizes:
        b = 1
        while b < s:
            b *= 4
        hist["<=%d" % b] = hist.get("<=%d" % b, 0) + 1
    return dict(sorted(hist.items(), key=lambda kv: int(kv[0][2:])))


def draw_decide(M, seed, size):
    tiny = size == "tiny"
    sst_slots = sst_template(M, TINY_SSTS if tiny else SSTS)
    seeded = [slot for slot in sst_slots if slot[1] < FIXED]
    ssts, drawn_ssts = _fill(seeded, _sst_candidates(M, random.Random(seed), _caps(seeded)))
    for e in ssts:
        e["name"] = "random-sst-%d" % e["index"]
    ssts.sort(key=lambda e: e["index"])
    fixed = [slot for slot in sst_slots if slot[1] >= FIXED]
    if fixed:
        big, _ = _fill(fixed, _sst_candidates(M, random.Random("fixed"), _caps(fixed)))
        for e in big:
            e["name"] = "fixed-sst-%d" % e["index"]
        ssts += sorted(big, key=lambda e: e["index"])
    for e in ssts:
        if e["copyless"] and e["one_bounded"] != (True, None):
            raise RuntimeError("the reference finds copyless machine %s not 1-bounded"
                               % e["name"])
    dma_slots = dma_template(M, TINY_DMAS if tiny else DMAS)
    dmas, drawn_dmas = _fill(dma_slots, _dma_candidates(
        M, random.Random("dma:%d" % seed), _caps(dma_slots)))

    settling = sst_reference(M.fixtures.settling_loops_sst())
    summary = {
        "sst_machines": len(ssts),
        "sst_candidates_drawn": drawn_ssts,
        "sst_monoid_sizes": _histogram(e["size"] for e in ssts),
        "fixed_sst_monoids": [e["size"] for e in ssts if e["name"].startswith("fixed")],
        "dmas": len(dmas),
        "dma_candidates_drawn": drawn_dmas,
        "dma_monoid_sizes": _histogram(e["size"] for e in dmas),
    }
    return Drawn(size, summary, ssts=ssts, dmas=dmas,
                 settling=(_expected(settling.one_bounded_witness()),
                           _expected(settling.aperiodicity_witness())))


def _rebuild(state, build):
    rng = random.Random()
    rng.setstate(state)
    return build(rng)


def setup_decide(M, drawn):
    ops = []
    sst = M.sst

    def sst_ops(proto, one_bounded, aperiodic, subject, limit):
        def prep_1b():
            t = copy.deepcopy(proto)
            return (lambda: sst.is_1_bounded(t),
                    _verdict_check(one_bounded,
                                   lambda w: sst.flow_matrix_direct(t, w).max_count() >= 2))

        def prep_ap():
            t = copy.deepcopy(proto)
            return (lambda: sst.is_aperiodic_sst(t),
                    _verdict_check(aperiodic, lambda w: _cycles(
                        lambda u: sst.flow_matrix_direct(t, u), w, limit)))

        ops.append(Op("sst.is_1_bounded", subject, prep_1b))
        ops.append(Op("sst.is_aperiodic_sst", subject, prep_ap))

    for e in drawn.ssts:
        proto = _rebuild(e["state"], M.fixtures.random_copyless_sst)
        # a copyless machine is 1-bounded (checked against the reference in
        # the draw); a copyful one is held to the reference's verdict
        one_bounded = (True, None) if e["copyless"] else e["one_bounded"]
        sst_ops(proto, one_bounded, e["aperiodic"], e["name"],
                e["size"] + 1)

    def dma_op(proto, expected, subject, limit):
        def prep():
            d = copy.deepcopy(proto)
            return (lambda: M.muller.is_aperiodic(d),
                    _verdict_check(expected, lambda w: _cycles(
                        lambda u: M.muller.matrix_of_word_direct(d, u), w, limit)))

        ops.append(Op("muller.is_aperiodic", subject, prep))

    for i, e in enumerate(drawn.dmas):
        dma_op(_rebuild(e["state"], lambda rng: random_dma(M, rng)), e["aperiodic"],
               "random-dma-%d" % i, e["size"] + 1)

    # frozen verdicts of the acceptance suite (c07) and of the two-way tests
    fx = M.fixtures
    dma_op(fx.settling_loops_dma(), (False, "a"), "settling_loops_dma", 100)
    dma_op(fx.last_letter_dma(), (True, None), "last_letter_dma", 100)
    sst_ops(fx.settling_loops_sst(), drawn.settling[0], drawn.settling[1],
            "settling_loops_sst", 1000)

    def twowst_op(proto, expected, subject):
        def prep():
            t = copy.deepcopy(proto)
            return (lambda: M.twowst.is_aperiodic_2wst(t),
                    _verdict_check(expected, lambda w: _cycles(
                        lambda u: M.twowst.element_of_word(t, u), w, 100)))

        ops.append(Op("twowst.is_aperiodic_2wst", subject, prep))

    twowst_op(fx.mirror_twowst(), (True, None), "mirror_twowst")
    twowst_op(fx.alternating_copier_twowst(), (False, "a"), "alternating_copier_twowst")
    twowst_op(fx.plain_copier_twowst(), (True, None), "plain_copier_twowst")
    return ops


# ---------------------------------------------------------------------------
# compile

K_COMPILE = 20


def draw_compile(M, seed, size, root, workdir):
    # the inputs are the shipped machines and corpus; the seed picks nothing
    names = ["alt-copier", "plain-copier"] if size == "tiny" else \
        ["mirror", "alt-copier", "plain-copier"]
    return Drawn(size, {"machines": names, "k": K_COMPILE}, names=names,
                 root=root, workdir=workdir, references={})


def run_cli(M, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = M.cli.main(argv)
    return rc, out.getvalue()


def setup_compile(M, drawn):
    fx = M.fixtures
    work = drawn.workdir
    corpus_path = os.path.join(drawn.root, "machines", "corpus.txt")
    corpus = M.formats.parse_corpus(corpus_path)
    sources = {"mirror": (os.path.join(drawn.root, "machines", "f1.2wst"), mirror_output,
                          "aperiodic")}
    for name, build, verdict in (
        ("alt-copier", fx.alternating_copier_twowst, "not aperiodic (witness: a)"),
        ("plain-copier", fx.plain_copier_twowst, "aperiodic"),
    ):
        path = os.path.join(work, name + ".2wst")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(M.formats.print_machine(build()))
        sources[name] = (path, copy_output, verdict)

    chains = []
    for name in drawn.names:
        src, expect, src_verdict = sources[name]
        guarded = os.path.join(work, name + ".sst-sf")
        plain = os.path.join(work, name + ".sst")
        report = os.path.join(work, name + ".tsv")
        alphabet = set(M.formats.parse_machine(src).alphabet)
        domain = [w for w in corpus if set(w.prefix + w.period) <= alphabet]
        chains.append(_compile_ops(M, drawn, name, src, guarded, plain, report, corpus,
                                   domain, expect, src_verdict))
    # verb by verb across the machines, so that the cheap verbs are spread
    # over the round instead of bunched between the slow checks
    return [op for step in zip(*chains) for op in step]


def _outputs_check(runner, domain, expect, kind, M, path):
    def check(result, exc):
        bad = _cli_ok(result, exc)
        if bad:
            return bad
        m = M.formats.parse_machine(path)
        if not isinstance(m, kind):
            return "wrote a %s" % type(m).__name__
        if kind is M.sst.Sst and sst_reference(m).one_bounded_witness() is not None:
            return "compiled machine is not 1-bounded"
        for w in domain:
            want = expect(w, K_COMPILE)
            try:
                got = runner(m, w, K_COMPILE)
            except M.sst.NotInDomain as err:
                return "rejects %s: %s" % (w, err)
            if got != want:
                return "on %s: %r, expected %r" % (w, got, want)
        return None

    return check


def _cli_ok(result, exc, rc=0):
    if exc is not None:
        return "raised %r" % (exc,)
    if result[0] != rc:
        return "exit %r, expected %r: %s" % (result[0], rc, result[1][-200:])
    return None


def _reference_of(M, drawn, path):
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if text not in drawn.references:
        m = M.formats.parse_machine_text(text)
        drawn.references[text] = (m, sst_reference(m))
    return drawn.references[text]


def _compile_ops(M, drawn, name, src, guarded, plain, report, corpus, domain, expect,
                 src_verdict):
    sst = M.sst

    def verdict_check(kind):
        def check(result, exc):
            if exc is not None:
                return "raised %r" % (exc,)
            m, ref = _reference_of(M, drawn, plain)
            if kind == "1b":
                w = ref.one_bounded_witness()
                want = "1-bounded" if w is None else "not 1-bounded (witness: %s)" % w
                ok = w is None or sst.flow_matrix_direct(m, w).max_count() >= 2
            else:
                w = ref.aperiodicity_witness()
                want = "aperiodic" if w is None else "not aperiodic (witness: %s)" % w
                ok = w is None or _cycles(lambda u: sst.flow_matrix_direct(m, u), w,
                                          len(ref) + 1)
            bad = _cli_ok(result, None, 0 if w is None else 1)
            if bad:
                return bad
            if result[1].strip() != want:
                return "printed %r, expected %r" % (result[1].strip(), want)
            return None if ok else "witness %r does not recheck" % (w,)

        return check

    def monoid_check(result, exc):
        bad = _cli_ok(result, exc)
        if bad:
            return bad
        _m, ref = _reference_of(M, drawn, plain)
        lines = result[1].splitlines()
        if lines[0] != "size: %d" % len(ref):
            return "printed %r, expected size %d" % (lines[0], len(ref))
        words = [line.split(":", 1)[0] for line in lines[1:]]
        if words != [w or "ε" for w in ref.words]:
            return "element words differ from the reference"
        return None

    def compare_check(result, exc):
        bad = _cli_ok(result, exc)
        if bad:
            return bad
        with open(report, encoding="utf-8") as handle:
            rows = handle.read().splitlines()[1:]
        want = ["%s\t%s\t-" % (M.words.format_word(w),
                               "equal" if w in domain else "both-reject") for w in corpus]
        if rows != want:
            return "report differs from the expected one"
        return None

    def src_check(result, exc):
        bad = _cli_ok(result, exc, 0 if src_verdict == "aperiodic" else 1)
        if bad:
            return bad
        return None if result[1].strip() == src_verdict else "printed %r" % result[1]

    def cli_op(verb, argv, check, known=None, clear=()):
        def prep():
            for path in clear:
                if os.path.exists(path):
                    os.remove(path)
            return (lambda: run_cli(M, argv), check)

        return Op("cli." + verb, name, prep, known)

    alt = name == "alt-copier"
    guarded_check = _outputs_check(M.constructions.run_output_sst_sf, domain, expect,
                                   M.constructions.SstSf, M, guarded)
    plain_check = _outputs_check(sst.run_output, domain, expect, sst.Sst, M, plain)
    corpus_path = os.path.join(drawn.root, "machines", "corpus.txt")
    return [
        cli_op("compile", ["compile", "2wst-to-sst", src, "-o", guarded], guarded_check,
               clear=(guarded, plain, report)),
        cli_op("eliminate-la", ["eliminate-la", guarded, "-o", plain], plain_check,
               NO_RULE if alt else None),
        cli_op("check-1bounded", ["check-1bounded", plain], verdict_check("1b")),
        cli_op("check-aperiodic", ["check-aperiodic", plain], verdict_check("ap")),
        cli_op("monoid", ["monoid", plain], monoid_check),
        cli_op("compare", ["compare", plain, src, "--corpus", corpus_path,
                           "-k", str(K_COMPILE), "--report", report], compare_check,
               (NO_RULE + "; " + FOREIGN) if alt else
               (FOREIGN if name == "plain-copier" else None)),
        cli_op("check-aperiodic", ["check-aperiodic", src], src_check),
    ]


# ---------------------------------------------------------------------------
# stream

STREAM = {"full": {"words": 25}, "tiny": {"words": 3}}
POOL = 600
K_SHORT = 40
K_LONG = 2100
GRID = range(1, 5)


def draw_stream(M, seed, size, root):
    """Words of mirror_corpus(seed=seed) with the shapes of the default corpus.

    A word's cost in every model follows its prefix and period lengths, so
    the draw takes, for each word of the default corpus in turn, the first
    unused word of the seeded corpus with the same two lengths (else the
    same period and the nearest prefix length).  The default corpus starts
    with twelve fixed words, which every seeded corpus also starts with.
    """
    count = STREAM[size]["words"]
    template = M.fixtures.mirror_corpus(count=count)[:count]
    pool = M.fixtures.mirror_corpus(count=POOL, seed=seed)
    free = list(range(len(pool)))
    words = []
    for w in template:
        def distance(i, w=w):
            v = pool[i]
            return (len(v.period) != len(w.period), abs(len(v.prefix) - len(w.prefix)), i)

        best = min(free, key=distance)
        free.remove(best)
        words.append(M.words.format_word(pool[best]))
    exact = sum(len(M.words.parse_word(a).prefix) == len(b.prefix)
                for a, b in zip(words, template))
    return Drawn(size, {"words": count, "k": [K_SHORT, K_LONG], "corpus_seed": seed,
                        "shape_matches": exact}, words=words, root=root)


def setup_stream(M, drawn):
    machines = os.path.join(drawn.root, "machines")
    f1 = {kind: M.formats.parse_machine(os.path.join(machines, "f1." + kind))
          for kind in ("sst", "2wst", "fot")}
    guarded = M.constructions.twowst_to_sst_sf(f1["2wst"])
    plain = M.constructions.eliminate_lookaround(guarded)
    corpus = [M.words.parse_word(text) for text in drawn.words]
    sst, cons = M.sst, M.constructions
    runners = [
        ("sst.run_output", "f1.sst", f1["sst"], lambda m, w, k: sst.run_output(m, w, k)),
        ("twowst.run_2wst", "f1.2wst", f1["2wst"],
         lambda m, w, k: M.twowst.run_2wst(m, w, k)),
        ("fot.run_fot", "f1.fot", f1["fot"], lambda m, w, k: M.fot.run_fot(m, w, k)),
        ("constructions.run_output_sst_sf", "guarded", guarded,
         lambda m, w, k: cons.run_output_sst_sf(m, w, k)),
        ("sst.run_output", "plain", plain, lambda m, w, k: sst.run_output(m, w, k)),
        ("constructions.pipeline_output", "plain", plain,
         lambda m, w, k: cons.pipeline_output(m, guarded, w, k)),
    ]
    fot = f1["fot"]
    formulas = [("dom", fot.domain)]
    formulas += [(("label",) + key, f) for key, f in sorted(fot.labels.items(), key=str)]
    formulas += [(("order",) + key, f) for key, f in sorted(fot.order.items())]

    ops = []
    for w in corpus:
        for k in (K_SHORT, K_LONG):
            for label, subject, proto, run in runners:
                known = WINDOW if label == "fot.run_fot" and k > 2048 else None
                ops.append(Op(label, "%s k=%d" % (subject, k),
                              _runner_prep(proto, run, w, k), known))
        ops.extend(_graph_ops(M, f1["sst"], w))
        ops.append(Op("fologic.evaluate", "formula grid", _grid_prep(M, formulas, w)))
    return ops


def _runner_prep(proto, run, w, k):
    def prep():
        m = copy.deepcopy(proto)

        def check(result, exc):
            if exc is not None:
                return "raised %r" % (exc,)
            want = mirror_output(w, k)
            return None if result == want else "wrong output on %s" % (w,)

        return (lambda: run(m, w, k), check)

    return prep


def _graph_ops(M, proto, w):
    sst = M.sst
    built = {}

    def prep_build():
        built.clear()
        t = copy.deepcopy(proto)
        horizon = sst.analyze_run(t, w).settle_col + 2 * len(w.period)
        fc = sst.FlowCache(t, w)
        built.update(t=t, fc=fc, horizon=horizon)

        def check(g, exc):
            if exc is not None:
                return "raised %r" % (exc,)
            built["graph"] = g
            for x, i, side in g.nodes:
                if side == "in" and walk_value(g, x, i) != values_after(t, w, i)[x]:
                    return "walk from (%s, %d) does not spell its value" % (x, i)
            return None

        return (lambda: M.outputgraph.build_output_graph(t, w, horizon, cache=fc), check)

    def prep_sweep():
        g = built.get("graph")
        if g is None:
            return (lambda: None, lambda result, exc: "no output graph to sweep")
        t, fc, horizon = built["t"], built["fc"], built["horizon"]
        nodes = sorted(g.nodes, key=str)

        def sweep():
            return [
                sst.path_conditions(t, w, u[0], u[1], u[2], v[0], v[1], v[2],
                                    horizon=horizon, cache=fc)
                for u in nodes
                for v in nodes
            ]

        def check(result, exc):
            if exc is not None:
                return "raised %r" % (exc,)
            reach = reach_closure(g)
            want = [v in reach[u] for u in nodes for v in nodes]
            return None if result == want else "path_conditions differs from BFS"

        return (sweep, check)

    return [Op("outputgraph.build_output_graph", "f1.sst", prep_build),
            Op("sst.path_conditions", "f1.sst all node pairs", prep_sweep)]


def _grid_prep(M, formulas, w):
    """The c12 grid on one word: every formula at every assignment of its
    free variables to positions 1..4."""
    cells = []
    for key, f in formulas:
        if key == "dom":
            envs = [{}]
        elif key[0] == "label":
            envs = [{"x": x} for x in GRID]
        else:
            envs = [{"x": x, "y": y} for x in GRID for y in GRID]
        cells.extend((key, f, env) for env in envs)

    def prep():
        def check(result, exc):
            if exc is not None:
                return "raised %r" % (exc,)
            want = [mirror_formula_truth(w, key, env.get("x", 1), env.get("y"))
                    for key, _f, env in cells]
            return None if result == want else "wrong verdicts on %s" % (w,)

        return (lambda: [M.fologic.evaluate(f, w, env) for _key, f, env in cells], check)

    return prep
