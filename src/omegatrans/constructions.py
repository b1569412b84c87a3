"""Compiling two-way transducers down to one-way streaming ones.

The pipeline has two stages, and each resolves one kind of guard.
twowst_to_sst_sf turns a two-way transducer into a guarded streaming
transducer (SstSf): a single left-to-right pass that carries the source's
look-behind state in its own states, so its transitions consult only the
look-ahead automaton.  Its states record, per cell, where the head crosses
into the next cell from each state a left move can enter, and which two-way
states it visits on the way; rows whose crossings share an excursion copy
its variable, but a run realizes at most one of the copies, so the result
is 1-bounded, not copyless.  Its variables start empty, as on every
streaming machine here: the end marker's output is written by the rows
that leave the initial state.  eliminate_lookaround then removes the
look-ahead guards by a subset construction over configurations that track,
besides the state, the set of pending look-ahead claims.  The result is a
plain Sst that sst.run_output runs without its source.  The states of
both stages and the configurations are each found by muller.explore, one
breadth-first search that raises CapExceeded past the stage's cap; the
word it gives the first configuration of an accepting component leads the
subset states to where that component's loop is followed.  Both stages
find the sets a run can visit forever with one pair of helpers: _cycles,
the components that hold an edge, and loops, every loop inside them.
compare_outputs is the harness that checks any two model implementations
against each other on a corpus of words.

Guards mean the same thing here as on the two-way machine: a look-behind
guard names the state the automaton reaches on the strict prefix before the
current position, a look-ahead guard asks whether the automaton accepts the
strict suffix after it.
"""

from collections import deque, namedtuple

from .fot import Fot, run_fot
from .muller import explore
from .sst import (NotInDomain, Sst, check_length, check_output_shape, run_output,
                  stream_output, streaming_fields)
from .twowst import (LEFT, MARK, RIGHT, TwoWst, _WordContext, guarded_row, guarded_rows,
                     run_2wst)
from .words import PAD, UPWord, first_divergence, lasso


class SstSf:
    """Streaming transducer whose transitions carry look-ahead guards.

    delta and update key on (state, None, letter, ahead), with ahead a
    lookahead state or None for "any".  The second field is the look-behind
    guard of the two-way keys, always None here: a one-way machine keeps
    its look-behind state in its own states, so it has no lookbehind.
    delta may be partial: a position where no row fires rejects the word,
    one where several fire is an error caught at run time.  The variables,
    updates and output rules F are checked by sst.streaming_fields, as on a
    plain Sst; rows may copy, and whether copies stay 1-bounded is checked on
    the plain machine eliminate_lookaround gives (sst.is_1_bounded).  Every
    variable starts empty, as on a plain Sst.
    """

    lookbehind = None

    def __init__(self, states, alphabet, initial, delta, variables, update,
                 F, lookahead=None):
        self.states = tuple(states)
        self.alphabet = tuple(alphabet)
        self.initial = initial
        self.lookahead = lookahead
        self.delta = dict(delta)
        self._by_qa = guarded_rows(self, self.alphabet, lambda key: key)
        for key, q2 in self.delta.items():
            if q2 not in self.states:
                raise ValueError("transition %r -> %r leaves the state set" % (key, q2))
        self.variables, self.update, self.F, self.muller_sets = streaming_fields(
            self.states, self.delta, variables, update, F
        )


Configuration = namedtuple("Configuration", ["state", "claims"])
Configuration.__doc__ = """One step of the guard-tracking product.

state is the machine state, claims the set of lookahead states whose
acceptance the run has promised and pushed forward."""


def _advance(s, cfg, key):
    """The configuration after the row key fires in configuration cfg."""
    _, _, a, p = key
    a_aut = s.lookahead
    claims = frozenset(a_aut.step(x, a) for x in cfg.claims) if a_aut else frozenset()
    if p is not None:
        claims = claims | {p}
    return Configuration(s.delta[key], claims)


def _fire(ctx, q, col):
    """Key of the row firing in state q on the letter after column col."""
    pos = col + 1
    key = ctx.transition(q, pos)
    if key is None:
        raise NotInDomain(
            frozenset(),
            "stuck: no guarded transition fires in state %r at position %d" % (q, pos),
        )
    return key


def _output_rule(s, states):
    """Output rule of the states a run visits forever; NotInDomain without one."""
    infinity = frozenset(states)
    if infinity not in s.F:
        raise NotInDomain(infinity)
    return s.F[infinity]


def run_output_sst_sf(s, word, k):
    """First k output letters of the guarded machine, ⊥-padded when the
    output stays finite.

    The guards fire periodically from the column where the word's guard
    data turns periodic (_WordContext), so the state run's lasso keys on
    (state, column class).  The output is streamed along it by
    sst.stream_output: only the variables the tail's growth reads over a
    loop are computed, and once their values repeat the output is filled
    with the repeating block, or padded with ⊥ if it is empty.  Both rules
    are exact, because no other variable reaches the output and the loop is
    deterministic on those values.  The loop keeps the output rule's shape,
    because SstSf checks its output rules when it is built.  Raises
    ValueError for k < 0.
    """
    check_length(k)
    ctx = _WordContext(s, word)
    keys = []

    def step(q, col):
        keys.append(_fire(ctx, q, col))
        return s.delta[keys[-1]]

    states, entry, _ = lasso(s.initial, step, ctx.entry_pos - 1, ctx.cycle_len)
    seq = _output_rule(s, states[entry:])
    return stream_output([s.update[key] for key in keys], entry, seq, k)


# ---------------------------------------------------------------------------
# two-way -> guarded streaming


def _crossings(t, f, b, a, alpha):
    """Crossings of one cell holding the letter a (or the end marker).

    Returns, for each state s the head can be in at the cell, the triple
    (the state in which it first enters the next cell, the output on the
    way as rhs items, the two-way states visited before that entry).  b is
    the cell's lookbehind state and alpha the one lookahead guard taken to
    hold there.  A left move in state q replays f[q] = (the state in which
    the head comes back, the states its excursion visits) and reads X_q,
    the excursion's output; the end marker has f = {}.  A state whose walk
    repeats a state on the cell, jams or falls off the left end has no
    crossing, since the head never leaves the cell to the right.
    """
    out = {}
    for s in t.states:
        q, items, seen, visited = s, [], set(), set()
        while q not in seen:
            seen.add(q)
            row = guarded_row(t._by_qa, q, a, b, {alpha})
            if row is None:
                break
            q, gamma, move = row
            items.extend(("lit", c) for c in gamma)
            if move == RIGHT:
                out[s] = (q, tuple(items), frozenset(seen | visited))
                break
            if move == LEFT:
                if q not in f:
                    break
                items.append(("var", "X_%s" % q))
                q, excursion = f[q]
                visited |= excursion
    return out


def _crossing_map(cross, left):
    """The (state, (return state, visited states)) pairs of the crossings
    from the states in left."""
    return tuple((s, (q2, visited)) for s, (q2, _items, visited) in cross.items()
                 if s in left)


def twowst_to_sst_sf(t, cap=12):
    """One-pass guarded transducer equivalent to the two-way machine.

    A state (q, f, V, r) after a prefix says: the head first enters the
    next cell in state q; for each state s in which a left move can enter
    the last cell read, f[s] is the state in which the head, started there
    in s, first enters the next cell, with the states it visits on the way,
    and X_s holds the output on the way (only such states s have a
    variable, since no other state holds a crossing); V is the set of states
    the run visited between its first entries into the last cell and the
    next; r is the state the lookbehind automaton reaches on the prefix
    (None without one).  Every look-behind guard of the next cell asks for
    r, so the guarded machine resolves them itself and keeps only the
    look-ahead guards.
    Reading a cell, _crossings works out the new f from the old one, O
    takes the crossing of q and every other X_s the crossing of s.  X_q is
    emptied: a crossing that re-enters the cell in q repeats the run from
    there, so it comes back to the next cell in the state the run first
    entered it in, and a crossing through X_q either loops or follows the
    run and never reaches O.

    The initial state (q0, f0, ∅, r0) holds the crossings of the end
    marker in f0, and its rows write the marker's output as literals where
    they read an X_s, so every variable starts empty.  No row enters the initial
    state, since every other V holds at least the state its crossing
    started in.

    The head starts on the first letter and, on a word it accepts, enters
    every cell, so each of its steps falls between its first entries into
    one cell and the next: in the V of exactly one cell.  The states it
    visits forever are therefore the union of the V over the states of the
    guarded run's loop, and a set P of states gets the output rule O iff
    that union over P is an accepting set of the source and P is a loop: a
    run can visit exactly P forever.  The sets P are the ones loops yields,
    so the rules cost per loop of the guarded machine, not per subset of
    one of its components.  A cell the head never leaves to the right has
    no crossing for the current state, and the guarded machine has no row
    there.

    Every other crossing is kept, so when the crossings of several states
    pass through one excursion, its variable is copied into each of them.
    Such crossings agree from their common excursion on and end in the same
    state; a later crossing that took two of them would come back to that
    state twice and loop.  So a run realizes at most one copy per cut, and
    the rows are copyful but 1-bounded.

    A state has one row per lookahead guard of the letter's rows (one
    unguarded row if they have none), keyed (state, None, letter, guard).
    Raises CapExceeded past cap states, and ValueError for an end-marker
    row with guards.
    """
    for (q, r, a, p) in t.delta:
        if a == MARK and (r, p) != (None, None):
            raise ValueError(
                "end-marker transitions must not carry guards (state %r)" % (q,))
    left = {q2 for q2, _out, move in t.delta.values() if move == LEFT}
    variables = tuple("X_%s" % q for q in t.states if q in left) + ("O",)
    marker = _crossings(t, {}, None, MARK, None)
    f0 = _crossing_map(marker, left)
    marker_output = {("var", "X_%s" % s): marker[s][1] for s, _ in f0 if marker[s][1]}
    behind = t.lookbehind
    init = (t.initial, f0, frozenset(), behind.initial if behind else None)
    cells = []
    for a in t.alphabet:
        aheads = {key[3] for key in t.delta if key[2] == a} - {None}
        cells.extend((a, alpha) for alpha in sorted(aheads, key=str) or (None,))

    delta = {}
    update = {}

    def successors(st):
        q, f, _, r = st
        for a, alpha in cells:
            cross = _crossings(t, dict(f), r, a, alpha)
            if q not in cross:
                continue
            f2 = _crossing_map(cross, left)
            dest = (cross[q][0], f2, cross[q][2], behind.step(r, a) if behind else None)
            key = (st, None, a, alpha)
            delta[key] = dest
            subst = {x: () for x in variables}
            subst["O"] = (("var", "O"),) + cross[q][1]
            for s, _ in f2:
                if s != q:
                    subst["X_%s" % s] = cross[s][1]
            if st == init:
                subst = {x: sum((marker_output.get(item, (item,)) for item in rhs), ())
                         for x, rhs in subst.items()}
            update[key] = subst
            yield a, dest

    states = [st for st, _w in explore(
        init, successors, cap, "state blowup: more than %d states in the conversion")]
    succ = {}
    for key, dest in delta.items():
        succ.setdefault(key[0], {})[dest] = None
    accepting = set(t.muller_sets)
    output = {P: ("O",) for P in loops(states, lambda st: succ.get(st, ()))
              if frozenset().union(*(st[2] for st in P)) in accepting}
    return SstSf(states, t.alphabet, init, delta, variables, update, output,
                 lookahead=t.lookahead)


# ---------------------------------------------------------------------------
# guard elimination


def _order_key(s):
    """Total order on configurations: state index, then sorted claim indices."""
    state_order = {q: i for i, q in enumerate(s.states)}
    a_order = (
        {p: i for i, p in enumerate(s.lookahead.states)} if s.lookahead else {}
    )

    def key(cfg):
        return state_order[cfg.state], tuple(sorted(a_order[p] for p in cfg.claims))

    return key


def _config_graph(s, cap):
    """Reachable configurations, their letter/row edges, and the word of
    each one's first breadth-first path from the start."""
    start = Configuration(s.initial, frozenset())
    rows_by_state = {}
    for key in s.delta:
        rows_by_state.setdefault(key[0], []).append(key)
    for q in rows_by_state:
        rows_by_state[q].sort(key=lambda key: (s.alphabet.index(key[2]), str(key[3])))
    adj = {}

    def successors(cfg):
        edges = adj[cfg] = [(key[2], key, _advance(s, cfg, key))
                            for key in rows_by_state.get(cfg.state, ())]
        return [(a, cfg2) for a, _key, cfg2 in edges]

    words = dict(explore(start, successors, cap,
                         "state blowup: more than %d reachable configurations"))
    return start, adj, words


def _cycles(nodes, succ):
    """The strongly connected components of the subgraph on nodes that hold
    an edge, as frozensets: iterative Tarjan, with roots taken in the order
    of nodes, so the result does not depend on hashing."""
    inside = set(nodes)
    index = {}
    low = {}
    onstack = set()
    stack = []
    comps = []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        onstack.add(root)
        work = [(root, iter(succ(root)))]
        while work:
            node, it = work[-1]
            pushed = False
            for child in it:
                if child not in inside:
                    continue
                if child not in index:
                    index[child] = low[child] = len(index)
                    stack.append(child)
                    onstack.add(child)
                    work.append((child, iter(succ(child))))
                    pushed = True
                    break
                if child in onstack:
                    low[node] = min(low[node], index[child])
            if pushed:
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                if len(comp) > 1 or node in succ(node):
                    comps.append(frozenset(comp))
    return comps


def loops(nodes, succ):
    """Yield every loop among nodes once, as a frozenset: a set whose inner
    edges make one strongly connected component with an edge, so that a run
    can visit exactly its nodes forever.

    A loop is a component of _cycles(nodes) or a loop of such a component
    less one of its nodes, so the search recurses through _cycles and skips
    the loops it has found: it costs per loop, not per subset of a
    component.  Node lists keep the order of nodes.
    """
    seen = set()
    todo = [list(nodes)]
    while todo:
        sub = todo.pop()
        for comp in _cycles(sub, succ):
            if comp in seen:
                continue
            seen.add(comp)
            yield comp
            members = [n for n in sub if n in comp]
            todo.extend([n for n in members if n != v] for v in members)


def _bfs_path(src, dst, succ):
    """Shortest (letter, node) path src -> dst with at least one step."""
    back = {}
    queue = deque()
    for a, nxt in succ(src):
        if nxt not in back:
            back[nxt] = (src, a)
            queue.append(nxt)
    while queue:
        node = queue.popleft()
        if node == dst:
            path = []
            cur = dst
            while True:
                prev, a = back[cur]
                path.append((a, cur))
                cur = prev
                if cur == src:
                    break
            path.reverse()
            return path
        for a, nxt in succ(node):
            if nxt not in back:
                back[nxt] = (node, a)
                queue.append(nxt)
    return None


def _covering_walk(comp_sorted, succ):
    """A closed walk from the least component node through every node."""
    anchor = comp_sorted[0]
    walk = []
    cur = anchor
    for node in comp_sorted[1:]:
        walk.extend(_bfs_path(cur, node, succ))
        cur = node
    walk.extend(_bfs_path(cur, anchor, succ))
    return walk


def _accepting_parts(s, adj, order_key):
    """Configuration components a run can settle into: the states visited
    must match an output set, and every pending claim must keep tracing an
    accepting look-ahead run around the component (checked thread by thread
    on a canonical covering walk)."""
    parts = []
    for P in s.muller_sets:
        members = set(P)
        nodes = sorted((c for c in adj if c.state in members), key=order_key)
        for comp in _cycles(nodes, lambda n: (c2 for _a, _key, c2 in adj[n])):
            if {c.state for c in comp} != members:
                continue
            comp_sorted = sorted(comp, key=order_key)

            def succ_walk(n, _cs=comp):
                for a, _key, c2 in adj[n]:
                    if c2 in _cs:
                        yield (a, c2)

            walk = _covering_walk(comp_sorted, succ_walk)
            laps = UPWord("", "".join(a for a, _node in walk))
            if s.lookahead is not None and not comp_sorted[0].claims <= s.lookahead.context(laps):
                continue
            parts.append((comp_sorted, walk, P))
    return parts


def _useful_parts(s, cap):
    start, adj, words = _config_graph(s, cap)
    order_key = _order_key(s)
    parts = _accepting_parts(s, adj, order_key)
    good = set()
    for comp, _walk, _P in parts:
        good.update(comp)
    rev = {}
    for c in adj:
        for _a, _key, c2 in adj[c]:
            rev.setdefault(c2, []).append(c)
    useful = set(good)
    queue = list(good)
    while queue:
        c = queue.pop()
        for pred in rev.get(c, ()):
            if pred not in useful:
                useful.add(pred)
                queue.append(pred)
    return start, adj, words, parts, useful


def useful_configs(s, cap=100000):
    """Configurations both reachable from the start and able to reach a
    component where the run can settle with all claims honoured."""
    _start, _adj, _words, _parts, useful = _useful_parts(s, cap)
    return useful


def _slot(x, j):
    return "%s@%d" % (x, j)


def eliminate_lookaround(s, cap=4096):
    """Plain streaming transducer simulating the guarded one, runnable on its
    own.

    States are sets of useful configurations.  In a set S, configuration c
    keeps its copy of source variable x in the slot x@j, where j is c's rank
    in S by configuration order, so there are max |S| slots per variable.
    Slots that no configuration of the target set occupies are reset to ε.
    Where several configurations in a set step to the same successor, the
    update is taken from the least predecessor.  Each accepting component's
    covering walk is followed around its subset lasso, and the output rule
    reads the first slot its configurations occupy there that keeps the
    streaming shape (sst.check_output_shape); a subset loop that two
    components would give different rules gets none.
    """
    start, adj, words, parts, useful = _useful_parts(s, cap)
    if start not in useful:
        raise ValueError("the initial configuration is not useful: empty domain")
    order_key = _order_key(s)
    configs = sorted(useful, key=order_key)
    step_rows = {}
    for c in configs:
        for a, key, c2 in adj[c]:
            if c2 not in useful:
                continue
            bucket = step_rows.setdefault((c, a), {})
            if c2 in bucket and bucket[c2] != key:
                raise ValueError(
                    "ambiguous rows between useful configurations "
                    "(%r -> %r on %r)" % (c, c2, a)
                )
            bucket[c2] = key

    def ranks(S):
        return {c: j for j, c in enumerate(sorted(S, key=order_key))}

    S0 = frozenset([start])
    delta2 = {}
    update2 = {}

    def successors(S):
        rank = ranks(S)
        for a in s.alphabet:
            targets = {}
            for c in rank:
                for c2, key in step_rows.get((c, a), {}).items():
                    targets.setdefault(c2, (c, key))
            S2 = frozenset(targets)
            subst = {}
            for c2, j2 in ranks(S2).items():
                c, key = targets[c2]
                for x, rhs in s.update[key].items():
                    subst[_slot(x, j2)] = tuple(
                        item if item[0] == "lit" else ("var", _slot(item[1], rank[c]))
                        for item in rhs
                    )
            delta2[(S, a)] = S2
            update2[(S, a)] = subst
            yield a, S2

    states = [S for S, _w in explore(
        S0, successors, cap, "state blowup: more than %d subset states")]

    variables = tuple(
        _slot(x, j) for j in range(max(map(len, states))) for x in s.variables
    )
    for subst in update2.values():
        for v in variables:
            subst.setdefault(v, ())

    output2 = {}
    conflicted = set()
    for comp_sorted, walk, P in parts:
        S = S0
        for a in words[comp_sorted[0]]:
            S = delta2[(S, a)]
        letters = [a for a, _node in walk]
        laps, entry, _ = lasso(
            S, lambda T, col: delta2[(T, letters[col % len(letters)])], 0, len(letters)
        )
        Pprime = frozenset(laps[entry:])
        # the walk is at its last node, the anchor, in every column 0 mod len(walk)
        slots = sorted({ranks(laps[col])[walk[(col - 1) % len(walk)][1]]
                        for col in range(entry, len(laps))})
        for j in slots:
            seq2 = tuple(_slot(x, j) for x in s.F[P])
            try:
                check_output_shape({Pprime: seq2}, delta2, update2)
            except ValueError:
                continue
            if Pprime in output2:
                if output2[Pprime] != seq2:
                    conflicted.add(Pprime)
            else:
                output2[Pprime] = seq2
            break
    for Pprime in conflicted:
        output2.pop(Pprime, None)

    result = Sst(states, s.alphabet, S0, delta2, variables, update2, output2)
    result._elimination = {"configs": configs}
    return result


def pipeline_output(result, source, word, k):
    """run_output of the eliminated machine, which needs nothing of source.

    Kept under this name and signature because the stream workload and the
    tracer of perfbench look it up by name.
    """
    return run_output(result, word, k)


# ---------------------------------------------------------------------------
# cross-model comparison


def run_model(m, word, k):
    """Dispatch to the matching runner for any of the machine models.

    A word with a letter outside the machine's alphabet is not in its domain.
    """
    for kind, runner in ((Sst, run_output), (TwoWst, run_2wst),
                         (SstSf, run_output_sst_sf), (Fot, run_fot)):
        if isinstance(m, kind):
            break
    else:
        raise TypeError("no runner for %s" % (type(m).__name__,))
    foreign = set(word.prefix + word.period) - set(m.alphabet)
    if foreign:
        raise NotInDomain(
            frozenset(), "rejected: letter %r is outside the alphabet" % min(foreign)
        )
    return runner(m, word, k)


def compare_outputs(m1, m2, corpus, k=40):
    """Agreement report over a corpus: rows (word, verdict, divergence).

    verdict is "equal", "both-reject" or "mismatch"; divergence is the
    1-based position of the first differing output letter, -1 when exactly
    one side rejects, None otherwise.
    """
    rows = []
    for w in corpus:
        o1 = _try_run(m1, w, k)
        o2 = _try_run(m2, w, k)
        if o1 is None and o2 is None:
            rows.append((w, "both-reject", None))
        elif o1 is None or o2 is None:
            rows.append((w, "mismatch", -1))
        elif o1 == o2:
            rows.append((w, "equal", None))
        else:
            d = first_divergence(UPWord(o1, PAD), UPWord(o2, PAD))
            rows.append((w, "mismatch", d))
    return rows


def _try_run(m, word, k):
    try:
        return run_model(m, word, k)
    except NotInDomain:
        return None
