"""Compiling two-way transducers down to one-way streaming ones.

The pipeline has two stages.  twowst_to_sst_sf turns a two-way transducer
into a guarded streaming transducer (SstSf): a single left-to-right pass
whose transitions still consult the look-behind and look-ahead automata of
the source.  eliminate_lookaround then removes the guards by a subset
construction over configurations that track, besides the state, one
look-behind run per start state and the set of pending look-ahead claims.
The result is a plain Sst that sst.run_output runs without its source.
compare_outputs is the harness that checks any two model implementations
against each other on a corpus of words.

Guards mean the same thing here as on the two-way machine: a look-behind
guard names the state the automaton reaches on the strict prefix before the
current position, a look-ahead guard asks whether the automaton accepts the
strict suffix after it.
"""

from collections import deque, namedtuple

from .fot import Fot, run_fot
from .muller import CapExceeded
from .sst import (PAD, NotInDomain, Sst, check_length, check_output_shape, is_copyless,
                  run_output, stream_output, streaming_fields)
from .twowst import LEFT, MARK, RIGHT, STAY, TwoWst, _WordContext, guarded_row, run_2wst
from .words import UPWord, first_divergence, lasso


class SstSf:
    """Streaming transducer whose transitions carry look-around guards.

    delta and update key on (state, behind, letter, ahead); behind is a
    lookbehind state or None for "any", ahead a lookahead state or None.
    delta may be partial: a position where no row fires rejects the word,
    one where several fire is an error caught at run time.  The variables,
    updates and output rules F are checked by sst.streaming_fields, as on a
    plain Sst, and every update row must be copyless.  start_values lets
    variables begin with non-empty content; a plain Sst always starts empty,
    so eliminate_lookaround writes them as literals on its first transition.
    """

    def __init__(self, states, alphabet, initial, delta, variables, update,
                 F, lookahead=None, lookbehind=None, start_values=None):
        self.states = tuple(states)
        self.alphabet = tuple(alphabet)
        self.initial = initial
        self.lookahead = lookahead
        self.lookbehind = lookbehind
        if initial not in self.states:
            raise ValueError("initial state %r not a state" % (initial,))
        self.delta = dict(delta)
        self._by_qa = {}
        for key, q2 in self.delta.items():
            q, r, a, p = key
            if q not in self.states or q2 not in self.states:
                raise ValueError("transition %r -> %r leaves the state set" % (key, q2))
            if a not in self.alphabet:
                raise ValueError("transition %r reads an unknown letter" % (key,))
            if r is not None:
                if lookbehind is None or r not in lookbehind.states:
                    raise ValueError("unknown lookbehind guard %r" % (r,))
            if p is not None:
                if lookahead is None or p not in lookahead.states:
                    raise ValueError("unknown lookahead guard %r" % (p,))
            self._by_qa.setdefault((q, a), []).append((r, p, key))
        self.variables, self.update, self.F, self.muller_sets = streaming_fields(
            self.states, self.delta, variables, update, F
        )
        for key, subst in self.update.items():
            if not is_copyless(subst):
                raise ValueError("update at %r is not copyless" % (key,))
        self.start_values = {x: "" for x in self.variables}
        for x, v in (start_values or {}).items():
            if x not in self.variables:
                raise ValueError("start value for unknown variable %r" % (x,))
            self.start_values[x] = v

    def initial_values(self):
        return dict(self.start_values)


Configuration = namedtuple("Configuration", ["state", "behind", "claims"])
Configuration.__doc__ = """One step of the guard-tracking product.

state is the machine state, behind the tuple of lookbehind states reached
from every start state on the prefix so far, claims the set of lookahead
states whose acceptance the run has promised and pushed forward."""


def _advance(s, cfg, key):
    """The configuration after the row key fires in configuration cfg."""
    _, _, a, p = key
    b = s.lookbehind
    a_aut = s.lookahead
    behind = tuple(b.step(x, a) for x in cfg.behind) if b else ()
    claims = frozenset(a_aut.step(x, a) for x in cfg.claims) if a_aut else frozenset()
    if p is not None:
        claims = claims | {p}
    return Configuration(s.delta[key], behind, claims)


def _fire(s, ctx, q, col):
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
        keys.append(_fire(s, ctx, q, col))
        return s.delta[keys[-1]]

    states, entry, _ = lasso(s.initial, step, ctx.entry_pos - 1, ctx.cycle_len)
    seq = _output_rule(s, states[entry:])
    return stream_output(s.initial_values(), [s.update[key] for key in keys], entry, seq, k)


# ---------------------------------------------------------------------------
# two-way -> guarded streaming


def _mark_map(t):
    """Chase the end-marker cell: per state, where the head re-enters the
    first letter and what it outputs on the way."""
    targets = {}
    outs = {}
    for s in t.states:
        cur = s
        seen = {s}
        out = []
        while True:
            row = None
            for r, p, value in t._by_qa.get((cur, MARK), ()):
                if r is not None or p is not None:
                    raise ValueError(
                        "end-marker transitions must not carry guards (state %r)"
                        % (cur,)
                    )
                row = value
            if row is None:
                break
            q2, gamma, move = row
            if move == LEFT:
                break  # falls off the left end: no crossing
            out.append(gamma)
            if move == RIGHT:
                targets[s] = q2
                outs[s] = "".join(out)
                break
            if q2 in seen:
                raise ValueError(
                    "recursion divergence at the end marker (state %r)" % (q2,)
                )
            seen.add(q2)
            cur = q2
    return targets, outs


def _injective_keep(f, keep_first, order):
    """Restrict f to one source per target: keep keep_first where its group
    contains it (its crossing is the one the run realizes), otherwise the
    least source in state order."""
    groups = {}
    for src in sorted(f, key=lambda s: order[s]):
        groups.setdefault(f[src], []).append(src)
    kept = {}
    for target, srcs in groups.items():
        pick = keep_first if keep_first in srcs else srcs[0]
        kept[pick] = target
    return kept


def _cell_cross(t, f, b, a, alpha):
    """Crossing data of one cell: for each state entering the letter from
    the left, the state leaving on the right and the output produced, as
    rhs items over the X variables.

    f maps states to where the previous cells' crossing ends; an entry
    missing there leaves the recursion undefined.  A cyclic recursion means
    the head never leaves the cell and is an error.
    """
    done = {}
    visiting = set()

    def solve(s):
        if s in done:
            return done[s]
        if s in visiting:
            raise ValueError(
                "recursion divergence: the head never crosses letter %r "
                "entered in state %r" % (a, s)
            )
        visiting.add(s)
        row = guarded_row(t._by_qa, s, a, b, lambda p: p == alpha)
        res = None
        if row is not None:
            q2, gamma, move = row
            lit = tuple(("lit", c) for c in gamma)
            if move == RIGHT:
                res = (q2, lit)
            elif move == STAY:
                sub = solve(q2)
                if sub is not None:
                    res = (sub[0], lit + sub[1])
            else:  # LEFT: re-enter the previous cells, cross back, continue
                back = f.get(q2)
                if back is not None:
                    sub = solve(back)
                    if sub is not None:
                        res = (sub[0], lit + (("var", "X_%s" % q2),) + sub[1])
        visiting.discard(s)
        done[s] = res
        return res

    for s in t.states:
        solve(s)
    return {s: r for s, r in done.items() if r is not None}


def twowst_to_sst_sf(t, cap=12):
    """One-pass guarded transducer equivalent to the two-way machine.

    States pair the current state with the crossing map of the consumed
    prefix (where a left re-entry would cross back to the right).  Each X
    variable holds the output such a re-crossing would produce, O collects
    the settled output.  The crossing map is kept injective so updates stay
    copyless, and the realized crossing's variable is reset after it flows
    into O; both cuts are safe because a deterministic run that re-entered a
    cell in the same state would loop forever and reject anyway.

    Transitions enumerate position contexts: a concrete lookbehind state
    when any row of the letter consults one, a concrete lookahead guard
    likewise.  Letters whose guarded rows do not cover some context keep
    the machine partial there, which mirrors the two-way machine getting
    stuck.  Every non-empty state set accepts, with output O; acceptance is
    effectively decided by the look-ahead side.
    """
    order = {q: i for i, q in enumerate(t.states)}
    variables = tuple("X_%s" % q for q in t.states) + ("O",)
    mark_targets, mark_outs = _mark_map(t)
    f0 = _injective_keep(mark_targets, None, order)
    start_values = {"X_%s" % s: mark_outs[s] for s in f0}

    def freeze(f):
        return tuple(sorted(f.items(), key=lambda kv: order[kv[0]]))

    init = (t.initial, freeze(f0))
    cells = []
    for a in t.alphabet:
        rows = [key for key in t.delta if key[2] == a]
        behinds = sorted({key[1] for key in rows if key[1] is not None}, key=str)
        aheads = sorted({key[3] for key in rows if key[3] is not None}, key=str)
        b_dom = tuple(t.lookbehind.states) if behinds else (None,)
        a_dom = tuple(aheads) if aheads else (None,)
        for b in b_dom:
            for alpha in a_dom:
                cells.append((b, a, alpha))

    states = [init]
    index = {init: 0}
    queue = deque([init])
    delta = {}
    update = {}
    while queue:
        st = queue.popleft()
        q, ftup = st
        f = dict(ftup)
        for b, a, alpha in cells:
            cross = _cell_cross(t, f, b, a, alpha)
            if q not in cross:
                continue
            f_prime = {s: cross[s][0] for s in cross}
            f2 = _injective_keep(f_prime, q, order)
            dest = (f_prime[q], freeze(f2))
            if dest not in index:
                if len(states) >= cap:
                    raise CapExceeded(
                        "state blowup: more than %d states in the conversion" % (cap,)
                    )
                index[dest] = len(states)
                states.append(dest)
                queue.append(dest)
            key = (st, b, a, alpha)
            delta[key] = dest
            subst = {x: () for x in variables}
            subst["O"] = (("var", "O"),) + cross[q][1]
            for s in f2:
                if s != q:
                    subst["X_%s" % s] = cross[s][1]
            update[key] = subst

    output = {}
    masks = [frozenset(st for i, st in enumerate(states) if n >> i & 1)
             for n in range(1, 1 << len(states))]
    for mask in masks:
        output[mask] = ("O",)
    return SstSf(
        states,
        t.alphabet,
        init,
        delta,
        variables,
        update,
        output,
        lookahead=t.lookahead,
        lookbehind=t.lookbehind,
        start_values=start_values,
    )


# ---------------------------------------------------------------------------
# guard elimination


def _order_key(s):
    """Total order on configurations: state index, then lookbehind run, then
    sorted claim indices."""
    state_order = {q: i for i, q in enumerate(s.states)}
    b_order = (
        {r: i for i, r in enumerate(s.lookbehind.states)} if s.lookbehind else {}
    )
    a_order = (
        {p: i for i, p in enumerate(s.lookahead.states)} if s.lookahead else {}
    )

    def key(cfg):
        return (
            state_order[cfg.state],
            tuple(b_order[r] for r in cfg.behind),
            tuple(sorted(a_order[p] for p in cfg.claims)),
        )

    return key


def _config_graph(s, cap):
    """Reachable configurations and their letter/row edges."""
    b = s.lookbehind
    start = Configuration(s.initial, tuple(b.states) if b else (), frozenset())
    b_index = b.states.index(b.initial) if b else None
    rows_by_state = {}
    for key in s.delta:
        rows_by_state.setdefault(key[0], []).append(key)
    for q in rows_by_state:
        rows_by_state[q].sort(
            key=lambda key: (s.alphabet.index(key[2]), str(key[1]), str(key[3]))
        )
    adj = {start: []}
    queue = deque([start])
    while queue:
        cfg = queue.popleft()
        for key in rows_by_state.get(cfg.state, ()):
            r = key[1]
            if r is not None and r != cfg.behind[b_index]:
                continue
            cfg2 = _advance(s, cfg, key)
            if cfg2 not in adj:
                if len(adj) >= cap:
                    raise CapExceeded(
                        "state blowup: more than %d reachable configurations" % (cap,)
                    )
                adj[cfg2] = []
                queue.append(cfg2)
            adj[cfg].append((key[2], key, cfg2))
    return start, adj


def _sccs(nodes, succ):
    """Iterative Tarjan over the given nodes."""
    index = {}
    low = {}
    onstack = set()
    stack = []
    comps = []
    counter = [0]
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        onstack.add(root)
        work = [(root, iter(succ(root)))]
        while work:
            node, it = work[-1]
            pushed = False
            for child in it:
                if child not in index:
                    index[child] = low[child] = counter[0]
                    counter[0] += 1
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
                comps.append(comp)
    return comps


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
                if cur == src and len(path) >= 1:
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
        node_set = set(nodes)

        def succ_plain(n, _ns=node_set):
            for _a, _key, c2 in adj[n]:
                if c2 in _ns:
                    yield c2

        for comp in _sccs(nodes, succ_plain):
            comp_set = set(comp)
            has_edge = any(
                c2 in comp_set for n in comp for _a, _key, c2 in adj[n]
            )
            if not has_edge:
                continue
            if {c.state for c in comp} != members:
                continue
            comp_sorted = sorted(comp, key=order_key)

            def succ_walk(n, _cs=comp_set):
                for a, _key, c2 in adj[n]:
                    if c2 in _cs:
                        yield (a, c2)

            walk = _covering_walk(comp_sorted, succ_walk)
            laps = UPWord("", "".join(a for a, _node in walk))
            if s.lookahead is not None and not all(
                s.lookahead.accepts(laps, start=p) for p in comp_sorted[0].claims
            ):
                continue
            parts.append((comp_sorted, walk, P))
    return parts


def _useful_parts(s, cap):
    start, adj = _config_graph(s, cap)
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
    return start, adj, parts, useful


def useful_configs(s, cap=100000):
    """Configurations both reachable from the start and able to reach a
    component where the run can settle with all claims honoured."""
    _start, _adj, _parts, useful = _useful_parts(s, cap)
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
    components would give different rules gets none.  Non-empty start values
    are written as literals by a fresh initial state that steps like {start}.
    """
    start, adj, parts, useful = _useful_parts(s, cap)
    if start not in useful:
        raise ValueError("the initial configuration is not useful: empty domain")
    order_key = _order_key(s)
    step_rows = {}
    for c in useful:
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
    states = [S0]
    seen = {S0}
    queue = deque([S0])
    delta2 = {}
    update2 = {}
    while queue:
        S = queue.popleft()
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
            if S2 not in seen:
                if len(states) >= cap:
                    raise CapExceeded(
                        "state blowup: more than %d subset states" % (cap,)
                    )
                seen.add(S2)
                states.append(S2)
                queue.append(S2)
            delta2[(S, a)] = S2
            update2[(S, a)] = subst

    variables = tuple(
        _slot(x, j) for j in range(max(map(len, states))) for x in s.variables
    )
    initial = S0
    if any(s.start_values.values()):
        initial = "init"
        states.insert(0, initial)
        seeds = {("var", _slot(x, 0)): tuple(("lit", ch) for ch in v)
                 for x, v in s.start_values.items()}
        for a in s.alphabet:
            delta2[(initial, a)] = delta2[(S0, a)]
            update2[(initial, a)] = {
                v: tuple(lit for item in rhs for lit in seeds.get(item, (item,)))
                for v, rhs in update2[(S0, a)].items()
            }
    for subst in update2.values():
        for v in variables:
            subst.setdefault(v, ())

    def succ_full(n):
        for a, _key, c2 in adj[n]:
            yield (a, c2)

    output2 = {}
    conflicted = set()
    for comp_sorted, walk, P in parts:
        anchor = comp_sorted[0]
        prefix = [] if anchor == start else _bfs_path(start, anchor, succ_full)
        S = S0
        for a, _node in prefix:
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

    result = Sst(states, s.alphabet, initial, delta2, variables, update2, output2)
    result._elimination = {"configs": sorted(useful, key=order_key)}
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
