"""Machines and word generators used by the tests, the demos and perfbench.

The paper's worked examples are defined once, as the text files under
machines/ at the root of the checkout: settling.dma and settling.sst (the
non-aperiodic settling-loops pair) and the mirror-copy transformation over
{a, b, #}, which maps a word u1#u2#...#un# t (finitely many #s, t
separator-free) to rev(u1)u1#rev(u2)u2#...#rev(un)# t.  The mirror map is
realized three ways (f1.2wst, f1.sst, f1.fot) and drives the cross-model
agreement tests.  The functions named after those machines parse their
files; the rest build small machines or random draws in code.  Each call
returns a fresh machine, since machines cache results on themselves.
"""

import random
from pathlib import Path

from .formats import parse_machine
from .muller import Dma
from .sst import Sst, analyze_run, parse_rhs
from .twowst import LEFT, MARK, RIGHT, STAY, TwoWst
from .words import UPWord, random_upword

_MACHINES = Path(__file__).resolve().parents[2] / "machines"


def _shipped(name):
    """A fresh parse of the machine file machines/<name>."""
    return parse_machine(_MACHINES / name)


def settling_loops_dma():
    """Accepts words that settle into the b-loop at q or the a-loop at r.

    Which loop a tail can settle into depends on the parity of the letters
    read before it (a swaps q and t, b swaps r and t), so both letter matrices
    have powers that alternate forever: the canonical non-counter-free Muller
    automaton.  Loaded from machines/settling.dma.
    """
    return _shipped("settling.dma")


def _updates(variables, table):
    """{(q, a): "X := aXb; Y := ε"} -> parsed substitutions."""
    out = {}
    for key, text in table.items():
        subst = {}
        for part in text.split(";"):
            lhs, rhs = part.split(":=")
            subst[lhs.strip()] = parse_rhs(rhs, variables)
        out[key] = subst
    return out


def mirror_sst():
    """Streaming version of the mirror-copy transformation.

    x collects the finished blocks, y mirrors the current block (αyα), and z
    keeps a plain copy of it; at a separator the finished ūu# moves into x.
    The output rule xz covers words with finitely many separators: x holds
    the processed part, z the separator-free tail.  Loaded from
    machines/f1.sst.
    """
    return _shipped("f1.sst")


def settling_loops_sst():
    """Copyful transducer on top of the settling-loops state graph.

    The b-loop at q runs Y := YX with X untouched, so over bb two copies of
    X's content land in Y: the standard example of a flow count reaching 2
    (not 1-bounded) while each single transition looks harmless.  Loaded
    from machines/settling.sst.
    """
    return _shipped("settling.sst")


def output_graph_demo_sst():
    """Seven-step chain machine exercising every output-graph situation.

    Reading 123456 then z forever: X is built, thrown away (X := c at step 2)
    and rebuilt, Y is thrown away at the start and at the end, Z survives
    into the output through Y and X.  Gives useless columns, literal edges,
    and nested value paths on one short run.
    """
    variables = ("X", "Y", "Z")
    states = ["g%d" % i for i in range(7)] + ["gdead"]
    alphabet = "123456z"
    delta = {}
    for q in states:
        for a in alphabet:
            delta[(q, a)] = "gdead"
    for i in range(1, 7):
        delta[("g%d" % (i - 1), str(i))] = "g%d" % i
    delta[("g6", "z")] = "g6"
    update = {
        ("g0", "1"): "X := aXb; Y := aaa; Z := Zc",
        ("g1", "2"): "X := c; Y := Y; Z := dZc",
        ("g2", "3"): "X := X; Y := eYf; Z := Z",
        ("g3", "4"): "X := X; Y := Y; Z := dZc",
        ("g4", "5"): "X := X; Y := YbZc; Z := g",
        ("g5", "6"): "X := XY; Y := bZc; Z := g",
    }
    parsed = _updates(variables, update)
    for key in delta:
        if key not in parsed:
            if delta[key] == "gdead":
                parsed[key] = {x: () for x in variables}
            else:
                parsed[key] = {}
    return Sst(
        states,
        alphabet,
        "g0",
        delta,
        variables,
        parsed,
        {("g6",): ("X", "Z")},
    )


def last_letter_dma():
    """State v exactly after reading an a, u after a b (or initially).

    Accepts words with infinitely many a's and infinitely many b's; its
    transition monoid is counter-free.
    """
    delta = {
        ("u", "a"): "v",
        ("u", "b"): "u",
        ("v", "a"): "v",
        ("v", "b"): "u",
    }
    return Dma(["u", "v"], "ab", "u", delta, [{"u", "v"}])


def random_copyless_sst(rng, max_states=4, max_vars=3, alphabet="ab"):
    """Seeded generator of copyless transducers with a reachable output rule.

    Every variable is placed in at most one right-hand side per transition
    (or dropped), so the machines are copyless by construction.  The output
    rule is a single growing variable X over the set of states some sampled
    word visits forever, with the self-extension shape forced onto the
    transitions inside that set.
    """
    n = rng.randint(2, max_states)
    variables = ("X", "Y", "Z")[: rng.randint(1, max_vars)]
    states = list(range(n))
    delta = {}
    update = {}
    for q in states:
        for a in alphabet:
            delta[(q, a)] = rng.randrange(n)
            placed = {x: [] for x in variables}
            for v in variables:
                slot = rng.randrange(len(variables) + 1)
                if slot < len(variables):
                    placed[variables[slot]].append(v)
            subst = {}
            for x in variables:
                rng.shuffle(placed[x])
                items = []
                for v in placed[x]:
                    for _ in range(rng.randrange(2)):
                        items.append(("lit", rng.choice(alphabet)))
                    items.append(("var", v))
                for _ in range(rng.randrange(2)):
                    items.append(("lit", rng.choice(alphabet)))
                subst[x] = tuple(items)
            update[(q, a)] = subst
    bare = Sst(states, alphabet, 0, delta, variables, update, {})
    loop_set = analyze_run(bare, random_upword(rng, alphabet)).infinity
    for q in loop_set:
        for a in alphabet:
            if delta[(q, a)] in loop_set:
                subst = {
                    x: tuple(i for i in rhs if i != ("var", "X"))
                    for x, rhs in update[(q, a)].items()
                }
                subst["X"] = (("var", "X"),) + subst["X"]
                update[(q, a)] = subst
    return Sst(states, alphabet, 0, delta, variables, update, {loop_set: ("X",)})


def random_twowst(rng, max_states=3, alphabet="ab"):
    """Seeded generator of unguarded two-way transducers whose runs jam,
    fall off the left end, tread in place and travel.  Each (state, letter)
    pair, end marker included, has a row with probability 9/10, moving
    right with probability 3/5; each state set accepts with probability 1/2.
    """
    n = rng.randint(1, max_states)
    states = list(range(n))
    delta = {}
    for q in states:
        for a in tuple(alphabet) + (MARK,):
            if rng.random() < 0.9:
                move = rng.choice((RIGHT, RIGHT, RIGHT, STAY, LEFT))
                out = rng.choice(("",) + tuple(alphabet))
                delta[(q, None, a, None)] = (rng.randrange(n), out, move)
    subsets = [{q for q in states if mask >> q & 1} for mask in range(1, 1 << n)]
    muller = [P for P in subsets if rng.random() < 0.5]
    return TwoWst(states, alphabet, 0, delta, muller)


def random_lookahead_twowst(rng, max_states=3, alphabet="ab"):
    """random_twowst with a look-ahead DMA: a random two-state DMA (states
    +u and +v) united with its complement (-u and -v, the same moves, every
    other non-empty set accepting), so -x accepts exactly what +x rejects.
    Each letter row is split, with probability 2/5, into the drawn row
    guarded by +x and a freshly drawn one guarded by -x, for x drawn from u
    and v, so exactly one row of the pair fires.  End-marker rows stay
    unguarded."""
    base = random_twowst(rng, max_states, alphabet)
    moves = {(s, a): rng.choice("uv") for s in "uv" for a in alphabet}
    signs = [rng.choice("+-") for _ in range(3)]
    muller = [{sign + s for s in P} for P, sign in zip(("u", "v", "uv"), signs)]
    ahead = Dma(["+u", "+v", "-u", "-v"], alphabet, "+u",
                {(sign + s, a): sign + q for (s, a), q in moves.items() for sign in "+-"},
                muller)
    n = len(base.states)
    delta = {}
    for (q, _r, a, _p), row in base.delta.items():
        if a == MARK or rng.random() >= 0.4:
            delta[(q, None, a, None)] = row
            continue
        x = rng.choice("uv")
        delta[(q, None, a, "+" + x)] = row
        delta[(q, None, a, "-" + x)] = (rng.randrange(n), rng.choice(("",) + tuple(alphabet)),
                                        rng.choice((RIGHT, RIGHT, RIGHT, STAY, LEFT)))
    return TwoWst(base.states, alphabet, 0, delta, base.muller_sets, lookahead=ahead)


def domain_words(t, rng, count, attempts=500, settle_cap=None, max_prefix=2, max_period=2):
    """Up to count distinct accepted words, found by rejection sampling."""
    out = {}
    alphabet = "".join(t.alphabet)
    while len(out) < count and attempts > 0:
        attempts -= 1
        w = random_upword(rng, alphabet, max_prefix, max_period)
        ana = analyze_run(t, w)
        if not ana.in_domain:
            continue
        if settle_cap is not None and ana.settle_col > settle_cap:
            continue
        out[w] = None
    return list(out)


def mirror_lookahead_dma():
    """Suffix classifier for the mirror machine: y asks "is there a
    separator ahead", n asks "is the rest separator-free"; m and d are the
    sink verdicts the two questions resolve into.  The look-ahead section of
    machines/f1.2wst."""
    return mirror_twowst().lookahead


def mirror_twowst():
    """Two-way version of the mirror-copy transformation.

    t scans rightward; while a separator is still ahead it stays silent, on
    the tail it copies.  At a separator the head turns around: p walks the
    block leftward emitting it reversed, q re-walks it verbatim, then the
    separator itself is emitted and t continues.  Loaded from
    machines/f1.2wst.
    """
    return _shipped("f1.2wst")


def alternating_copier_twowst():
    """Copies a^ω while flipping between two states; its single letter
    element swaps them, so the machine is not counter-free."""
    delta = {
        ("e", None, "a", None): ("o", "a", RIGHT),
        ("o", None, "a", None): ("e", "a", RIGHT),
    }
    return TwoWst("eo", "a", "e", delta, [{"e", "o"}])


def plain_copier_twowst():
    """One state, always moving right, copying every letter."""
    delta = {("s", None, al, None): ("s", al, RIGHT) for al in "ab"}
    return TwoWst("s", "ab", "s", delta, [{"s"}])


def mirror_corpus(count=50, seed=20260825):
    """Deterministic sample of the mirror domain: finitely many separators.

    The hand-picked head pins down the shapes the tests reference by name
    (empty prefix, leading separator, doubled separator, separator inside
    the period's block structure); the rest is filled with seeded random
    block words so the corpus stays identical between runs.
    """
    words = dict.fromkeys([
        UPWord("", "a"),
        UPWord("", "ab"),
        UPWord("b", "ab"),
        UPWord("#", "a"),
        UPWord("##", "ba"),
        UPWord("a#", "b"),
        UPWord("ab#", "a"),
        UPWord("abbb#ba#", "ab"),
        UPWord("#a#", "b"),
        UPWord("ba#aa#b", "ba"),
        UPWord("aaa#b#", "ba"),
        UPWord("b#a#b#", "a"),
    ])
    rng = random.Random(seed)
    while len(words) < count:
        blocks = [
            "".join(rng.choice("ab") for _ in range(rng.randrange(4)))
            for _ in range(rng.randrange(4))
        ]
        prefix = "".join(block + "#" for block in blocks)
        tail = "".join(rng.choice("ab") for _ in range(rng.randrange(1, 4)))
        words[UPWord(prefix, tail)] = None
    return list(words)


def mirror_fot():
    """The mirror-copy transformation as a first-order transducer.

    Copy 2 holds the reversed image of each separator-terminated block,
    copy 1 the verbatim image, copy 3 the separators and the eventually
    separator-free tail.  The order formulas generate the output order:
    within a block all copy-2 nodes (read backwards) precede all copy-1
    nodes (read forwards), and a block's separator closes it.  Loaded from
    machines/f1.fot.
    """
    return _shipped("f1.fot")
