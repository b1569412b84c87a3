"""Streaming transducers over infinite words.

A streaming transducer reads its input left to right, holding a finite set of
string variables that every transition rewrites through a substitution: each
variable gets a new value built by concatenating output letters and the old
values of variables.  Acceptance is Muller: the set P of states visited
infinitely often must carry an output rule F(P) = x_1 ... x_n.  Once the run
settles into P, the rules guarantee that x_1 .. x_{n-1} keep their values and
x_n only ever grows at the right end, so the word x_1 ... x_n has a limit;
when that limit is finite the output is padded with ⊥.

The transition monoid refines the run summaries of module muller with copy
counts.  The element of a factor w keeps, per source state p, the
destination q of the run, its canonical visited set, and a row-major
|X| x |X| block whose entry (x, y) counts the copies of x's content before
w that end up inside y's content after w.  Composition follows the
destination, unions the visited sets and multiplies the blocks; the
machines are deterministic, so a row of the classical flow matrix over
(state, variable) pairs has one target state, and the block is that row
grid.  Counts saturate at 2 ("two means at least two"), which keeps the
monoid finite while still deciding whether it is aperiodic.  Whether the
machine is 1-bounded (no count ever reaches 2) is decided without the
monoid: is_1_bounded searches the sets of pairs of copy paths a word
reaches, at most one per monoid element and in practice far fewer, and
returns the same shortlex-least witness.  `flows` keeps a count exact, as
one unsaturated flow matrix of the factor.  The output-structure queries
of module outputgraph (`useful`, `path_conditions`) need no counts: a
count is at least 1 exactly when its target is in a reach set, and
FlowCache answers them from reach sets and column tables of the run.
The matrix view (`rows`, `entry`) pairs each count with the coordinate
tuple of the state run, as the entry algebra of module muller describes
it.
"""

from .muller import (
    BOT,
    SummarySpace,
    _Memo,
    aperiodicity_witness,
    check_total,
    explore,
    generate_monoid,
)
from .words import lasso


PAD = "⊥"


def check_length(k):
    """Raise ValueError for a negative output length k; every runner checks k here."""
    if k < 0:
        raise ValueError("output length k must be >= 0, got %d" % k)


def parse_rhs(text, variables):
    """Right-hand side text like "aXb" -> (("lit","a"),("var","X"),("lit","b")).

    Variable names are matched greedily, longest first; every other non-space
    character is an output letter.  "ε" (or an empty string) is the empty
    right-hand side.
    """
    text = text.strip()
    if text in ("", "ε"):
        return ()
    names = sorted(variables, key=len, reverse=True)
    items = []
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        for name in names:
            if text.startswith(name, i):
                items.append(("var", name))
                i += len(name)
                break
        else:
            items.append(("lit", text[i]))
            i += 1
    return tuple(items)


def format_rhs(rhs):
    if not rhs:
        return "ε"
    return "".join(piece for _, piece in rhs)


def identity_subst(variables):
    return {x: (("var", x),) for x in variables}


def apply_subst(subst, vals):
    """New variable values after one update step."""
    out = {}
    for x, rhs in subst.items():
        out[x] = "".join(v if kind == "lit" else vals[v] for kind, v in rhs)
    return out


def compose_subst(s1, s2):
    """Substitution of a two-step run: s1 first, then s2.

    The combined right-hand side for x is s2(x) with every variable y replaced
    by s1(y), so applying the result to some values equals applying s1 and
    then s2.
    """
    out = {}
    for x, rhs in s2.items():
        items = []
        for kind, v in rhs:
            if kind == "lit":
                items.append((kind, v))
            else:
                items.extend(s1[v])
        out[x] = tuple(items)
    return out


def is_copyless(subst):
    """True iff no variable occurs more than once across all right-hand sides."""
    seen = set()
    for rhs in subst.values():
        for kind, v in rhs:
            if kind == "var":
                if v in seen:
                    return False
                seen.add(v)
    return True


class NotInDomain(Exception):
    """The word is rejected; infinity_set holds the states visited forever."""

    def __init__(self, infinity_set, message=None):
        self.infinity_set = frozenset(infinity_set)
        if message is None:
            message = "rejected: no output rule for {%s}" % ",".join(
                sorted(map(str, infinity_set))
            )
        super().__init__(message)


def check_output_shape(rules, delta, update):
    """ValueError unless every output rule keeps its shape inside its state set.

    rules maps a state set P to its output variables x_1 .. x_n, delta maps
    a transition key, whose first item is the source state, to the target
    state, and update maps the key to its substitution.  On every transition
    from P into P, x_1 .. x_{n-1} must stay put and x_n may only grow at the
    right end; otherwise the limit need not exist.
    """
    for seq in set(rules.values()):
        *fixed, last = seq
        sets = [P for P, other in rules.items() if other == seq]
        for key, q2 in delta.items():
            subst = update[key]
            moved = [x for x in fixed if subst[x] != (("var", x),)]
            if not moved and subst[last][:1] == (("var", last),):
                continue
            for P in sets:
                if key[0] in P and q2 in P:
                    where = "inside %r (transition %s)" % (
                        set(P), ",".join(map(repr, key)))
                    if moved:
                        raise ValueError(
                            "output variable %r must be unchanged %s" % (moved[0], where))
                    raise ValueError(
                        "output variable %r must extend itself %s" % (last, where))


def streaming_fields(states, delta, variables, update, F):
    """(variables, update, F, muller_sets) of a streaming transducer, checked.

    Sst and SstSf both build these fields here.  delta maps a transition key,
    whose first item is the source state, to a target state, and the caller
    has checked it.  update maps some of those keys, and no other, to a
    substitution {var: rhs} with rhs a tuple of ("lit", c) / ("var", x)
    items; the variables it leaves out are filled in as identity.  F maps
    distinct non-empty state sets to sequences of distinct variables, whose
    shape check_output_shape checks.  muller_sets lists F's state sets in a
    fixed order.
    """
    variables = tuple(variables)
    if len(set(variables)) != len(variables) or not variables:
        raise ValueError("variables must be distinct and non-empty")
    stray = update.keys() - delta.keys()
    if stray:
        raise ValueError("update for %r, which is not a transition" % (min(stray, key=repr),))
    full = {}
    for key in delta:
        subst = dict(update.get(key, {}))
        for x, rhs in subst.items():
            if x not in variables:
                raise ValueError("update at %r writes unknown variable %r" % (key, x))
            for item in rhs:
                if item[0] == "var":
                    if item[1] not in variables:
                        raise ValueError(
                            "update at %r reads unknown variable %r" % (key, item[1])
                        )
                elif item[0] != "lit":
                    raise ValueError("malformed rhs item %r at %r" % (item, key))
        for x in variables:
            subst.setdefault(x, (("var", x),))
        full[key] = subst
    rules = {frozenset(P): tuple(seq) for P, seq in F.items()}
    if len(rules) != len(F):
        raise ValueError("output rules repeat a state set")
    for P, seq in rules.items():
        if not P or not P <= set(states):
            raise ValueError("bad output state set %r" % (set(P),))
        if not seq or len(set(seq)) != len(seq):
            raise ValueError("output sequence for %r must be distinct and non-empty" % (set(P),))
        if not set(seq) <= set(variables):
            raise ValueError("output sequence for %r uses unknown variables" % (set(P),))
    check_output_shape(rules, delta, full)
    muller_sets = tuple(sorted(rules, key=lambda P: tuple(sorted(map(str, P)))))
    return variables, full, rules, muller_sets


class Sst:
    """Deterministic streaming transducer with Muller output rules.

    delta maps exactly states × alphabet into states (check_total), and
    update maps (state, letter) to a substitution, checked and completed by
    streaming_fields as on the guarded constructions.SstSf.  F maps each
    accepting state set to the sequence of variables whose limit is the
    output.  Machines need
    not be copyless (is_copyless and is_1_bounded are separate checks), but
    the output rules must freeze x_1 .. x_{n-1} and extend x_n on every
    transition that stays inside their state set.
    """

    def __init__(self, states, alphabet, initial, delta, variables, update, F):
        self.states = tuple(states)
        self.alphabet = tuple(alphabet)
        self.initial = initial
        self.delta = dict(delta)
        check_total(self.states, self.alphabet, initial, self.delta)
        self.variables, self.update, self.F, self.muller_sets = streaming_fields(
            self.states, self.delta, variables, update, F
        )

    def run_factor(self, q, factor):
        """(end state, set of states of the run, endpoints included)."""
        seen = {q}
        for a in factor:
            q = self.delta[(q, a)]
            seen.add(q)
        return q, seen


class RunAnalysis:
    """Lasso data for a machine's unique state run on an ultimately periodic word.

    Columns count letters read: column 0 is the start, column i the point
    after i letters.  The run repeats the columns from entry_col on with
    period cycle_cols (words.lasso), the infinity set is the set of states
    inside that cycle, and the settling column is the first period boundary
    (the column after the prefix plus some copies of the period) after which
    the run stays inside the infinity set.
    """

    def __init__(self, t, word):
        self.t = t
        self.word = word
        lp = len(word.prefix)
        plen = len(word.period)
        self._cols, self.entry_col, self.cycle_cols = lasso(
            t.initial, lambda q, col: t.delta[(q, word.letter_at(col + 1))], lp, plen
        )
        self.infinity = frozenset(self._cols[self.entry_col:])
        self.in_domain = self.infinity in t.F
        self.output_seq = t.F.get(self.infinity)
        self.settle_col = None
        if self.in_domain:
            col = self.entry_col
            while col > lp and self._cols[col - 1] in self.infinity:
                col -= 1
            # the first period boundary at or after col
            self.settle_col = lp - (lp - col) // plen * plen

    def state_at(self, col):
        if col < len(self._cols):
            return self._cols[col]
        folded = self.entry_col + (col - self.entry_col) % self.cycle_cols
        return self._cols[folded]

    def update_at(self, col):
        """Substitution applied when reading letter number col (col >= 1)."""
        return self.t.update[(self.state_at(col - 1), self.word.letter_at(col))]


def analyze_run(t, word):
    return RunAnalysis(t, word)


def _reads(rhs):
    return {v for kind, v in rhs if kind == "var"}


def _loop_subst(loop, targets):
    """The right-hand sides of targets over the whole loop, composed back to
    front so that only the variables they read get expanded."""
    sigma = identity_subst(targets)
    for subst in reversed(loop):
        sigma = compose_subst(subst, sigma)
    return sigma


def stream_output(substs, entry, out_vars, k):
    """First k letters of the limit of the word out_vars along a lasso run.

    Every variable is empty in column 0, substs[c] takes the variable values
    of column c to those of column c+1, and substs[entry:] is the loop the
    run repeats forever.  Its composition σ keeps out_vars[:-1] fixed and
    sends the tail t = out_vars[-1] to t·rest, because Sst and SstSf check their output rules when built and
    the loop stays inside the rule's state set.  The output is then the
    value of out_vars at the entry followed by one piece per loop, rest
    spelled on the values before that loop.

    Only the read set R, the variables rest reads closed under the reads of
    σ, is computed: in the prefix, only the right-hand sides some later step
    needs for R or out_vars, and in the loop only σ on R.  This is exact,
    because no other variable reaches the output.  The tail itself is kept
    as the list of pieces, unless it is in R.

    σ is deterministic on R, so once R's values after loop j equal those
    after an earlier loop i, pieces i..j-1 repeat forever: the output is
    filled up with that block, or padded with ⊥ if the block is empty.
    R's values are saved at the entry and after loops 1, 2, 4, ... (Brent),
    so values that repeat from loop i on with period p are caught by loop
    3·max(i, p).  The stop is certain: a value of R that is non-empty after
    a loop shows up in a piece within |R| more loops, so if the output
    stops growing, R's values are all empty from some loop on, and repeat.
    """
    loop = substs[entry:]
    tail = out_vars[-1]
    sigma = _loop_subst(loop, out_vars)
    rest = sigma[tail][1:]
    read = set()
    todo = _reads(rest)
    while todo:
        read |= todo
        sigma.update(_loop_subst(loop, todo - sigma.keys()))
        todo = set().union(*(_reads(sigma[x]) for x in todo)) - read
    need = read | set(out_vars)
    prefix = []
    for subst in reversed(substs[:entry]):
        prefix.append({x: subst[x] for x in need})
        need = set().union(*(_reads(rhs) for rhs in prefix[-1].values()))
    vals = dict.fromkeys(need, "")
    for subst in reversed(prefix):
        vals = apply_subst(subst, vals)

    pieces = ["".join(vals[x] for x in out_vars)]
    size = len(pieces[0])
    step = {x: sigma[x] for x in read}
    vals = {x: vals[x] for x in read}
    saved, mark, loops = vals, 1, 0
    block = None
    while size < k:
        pieces.append(apply_subst({tail: rest}, vals)[tail])
        size += len(pieces[-1])
        vals = apply_subst(step, vals)
        loops += 1
        if vals == saved:
            block = "".join(pieces[mark:])
            break
        if loops & (loops - 1) == 0:
            saved, mark = vals, len(pieces)
    out = "".join(pieces)
    if block:
        out += block * -(-(k - len(out)) // len(block))
    return out[:k].ljust(k, PAD)


def run_output(t, word, k):
    """First k output symbols of t on word, ⊥-padded if the limit is finite.

    Raises NotInDomain when the set of states visited forever has no output
    rule.  The output is streamed along the run's lasso by stream_output:
    only the variables the tail's growth reads are computed, and once their
    values after a loop repeat, the output is that block repeated (⊥ if it
    is empty).  Both rules are exact, and the work does not grow with k once
    the read values repeat.  Raises ValueError for k < 0.
    """
    check_length(k)
    ana = analyze_run(t, word)
    if not ana.in_domain:
        raise NotInDomain(ana.infinity)
    substs = [ana.update_at(col) for col in range(1, ana.entry_col + ana.cycle_cols + 1)]
    return stream_output(substs, ana.entry_col, ana.output_seq, k)


def values_after(t, word, i):
    """Variable contents after the run on word has consumed i letters."""
    ana = analyze_run(t, word)
    vals = dict.fromkeys(t.variables, "")
    for col in range(1, i + 1):
        vals = apply_subst(ana.update_at(col), vals)
    return vals


def _flow_space(t, saturate):
    return SummarySpace(t.states, t.muller_sets, t.variables, saturate)


def _count_block(t, subst, saturate):
    """Row-major |X| x |X| block: occurrences of x in subst's rhs for y."""
    block = []
    for x in t.variables:
        occurrence = ("var", x)
        for y in t.variables:
            c = subst[y].count(occurrence)
            block.append(min(c, 2) if saturate else c)
    return tuple(block)


def flow_matrix(t, factor, saturate=True):
    """Flow matrix of a finite factor (product of letter matrices)."""
    letters = {a: flow_matrix_direct(t, a, saturate) for a in set(factor)}
    m = _flow_space(t, saturate).identity()
    for a in factor:
        m = m * letters[a]
    return m


def flow_matrix_direct(t, factor, saturate=True):
    """Same matrix from composed substitutions and concrete runs; the oracle."""
    runs = []
    for p in t.states:
        q, seen = t.run_factor(p, factor)
        comb = identity_subst(t.variables)
        state = p
        for a in factor:
            comb = compose_subst(comb, t.update[(state, a)])
            state = t.delta[(state, a)]
        runs.append((q, seen if factor else (), _count_block(t, comb, saturate)))
    return _flow_space(t, saturate).element(runs)


def _flow_generators(t):
    """Letter flow matrices and identity of the flow monoid."""
    return {a: flow_matrix_direct(t, a) for a in t.alphabet}, _flow_space(t, True).identity()


def sst_monoid(t, cap=10 ** 6):
    return generate_monoid(*_flow_generators(t), cap)


def is_1_bounded(t, cap=10 ** 6):
    """(verdict, witness): witness is the shortlex-least word some flow count
    of which reaches 2, or None when no count ever does.

    A copy path of x from state p follows one occurrence of its current
    variable per letter: reading a in state q, a copy in y moves to the
    occurrence (z, i) of y at index i of the right-hand side for z in the
    update at (q, a).  The exact count of x inside y after w is the number
    of paths of w from x ending in y, so it reaches 2 exactly when two paths
    that differ at some occurrence end in the same variable.  The search
    therefore runs on nodes (q, y1, y2, split): two paths of the word read
    so far that started at one variable of one state, now sit in y1 and y2
    at state q, and have (split) or have not yet used different occurrences.
    Paths that have not split sit in one variable, and paths in different
    variables have split.  The set of nodes after w starts as
    {(p, x, x, False)} over every state and variable, and a letter maps each
    node to all pairs of occurrences of y1 and y2, with split set once the
    pair differs.  Some count of w reaches 2 iff its set holds a node
    (q, y, y, True).

    The set of w is a function of w's flow element, counts saturated at 2.
    Over the source states p whose run on w ends in q and their variables
    x: (q, y, y, False) is in it iff some count of x into y is at least 1,
    (q, y1, y2, True) with y1 != y2 iff the counts of one x into y1 and y2
    are both at least 1, and (q, y, y, True) iff some count into y is 2.  The set of w·u depends only on the set of w
    and on u, so the breadth-first search in sorted letter order (explore)
    keeps only the first word of each set, as it does with monoid elements, and
    meets every set first at its shortlex-least word.  The first set with a
    count of 2 thus names the shortlex-least word whose flow element has
    one, the witness a scan of sst_monoid in shortlex order finds, and the
    search stops there.  It visits at most one set per element of the flow
    monoid, so cap bounds the visited sets and CapExceeded is raised when
    the search would visit more.  The graph has |Q|·|X|²·2 nodes
    (Weber–Seidl's square automaton, TCS 1991, applied to the copy paths of
    Alur–Filiot–Trivedi's bounded copying, LICS 2012).
    """
    moves = {}
    for (q, a), subst in t.update.items():
        occurrences = {y: [] for y in t.variables}
        for z, rhs in subst.items():
            for i, (kind, v) in enumerate(rhs):
                if kind == "var":
                    occurrences[v].append((z, i))
        moves[q, a] = (t.delta[(q, a)], occurrences)

    def successors(key):
        (q, y1, y2, split), a = key
        r, occurrences = moves[q, a]
        return frozenset(
            (r, o1[0], o2[0], split or o1 != o2)
            for o1 in occurrences[y1] for o2 in occurrences[y2])

    step = _Memo(successors, {})
    start = frozenset((p, x, x, False) for p in t.states for x in t.variables)
    letters = sorted(t.alphabet)
    for nodes, w in explore(
            start,
            lambda nodes: [(a, frozenset().union(*(step[node, a] for node in nodes)))
                           for a in letters],
            cap, "1-boundedness search exceeded its cap of %d sets of copy-path pairs"):
        if any(split and y1 == y2 for _, y1, y2, split in nodes):
            return False, w
    return True, None


def is_aperiodic_sst(t, cap=10 ** 6):
    """(verdict, witness): witness is a word whose flow-matrix powers cycle."""
    w = aperiodicity_witness(*_flow_generators(t), cap)
    return (w is None), w


class FlowCache:
    """Reach sets and column tables of one run, built on demand.

    reach_set(x, i, k) is the set of variables whose column-k content holds
    a copy of x's column-i content; an exact flow count is at least 1
    exactly when its target is in that set.  useful(x, i) and order(k,
    horizon) read the two column tables of path_conditions, each built once
    per cache and horizon by _backward_fixpoint.  Everything is built
    iteratively, so columns any distance apart are fine, and a query is a
    few set lookups.
    """

    def __init__(self, t, word):
        self.t = t
        self.analysis = analyze_run(t, word)
        self._reach = {}
        self._useful = None
        self._order = {}

    def reach_set(self, x, i, k):
        """Variables holding a copy of x's column-i content at column k >= i."""
        row = self._reach.get((x, i))
        if row is None:
            row = self._reach[(x, i)] = [frozenset([x])]
        while len(row) <= k - i:
            subst = self.analysis.update_at(i + len(row))
            row.append(_step_vars(self.t, subst, row[-1]))
        return row[k - i]

    def useful(self, x, i):
        if self._useful is None:
            self._useful = _useful_table(self.analysis)
        return x in self._useful(i)

    def order(self, k, horizon):
        """Pairs (u, v) whose column-k contents meet in one right-hand side,
        u strictly first, at a step up to the horizon (None: any step)."""
        table = self._order.get(horizon)
        if table is None:
            table = self._order[horizon] = _order_table(self.analysis, horizon)
        return table(k)


def _step_vars(t, subst, sources):
    return frozenset(
        y
        for y in t.variables
        if any(kind == "var" and v in sources for kind, v in subst[y])
    )


def _backward_fixpoint(ana, base, pre, start, stop):
    """The least column sets T_k = base(k) ∪ pre(k + 1, T_{k+1}), as a lookup.

    pre(c, S) is the part of column c - 1 that the step into column c sends
    into S, and both it and base are monotone.  With a stop column, T_k = ∅ from stop on and the
    columns below are filled back to front.  Without one, base(k) and
    pre(k + 1, ·) must depend on k >= start only through the phase
    (k - start) mod cycle_cols.  The phases are then iterated from ∅ until a
    whole pass changes nothing: every value stays below the least solution
    (monotone steps from ∅), and a pass without change is a solution, so
    the result is the least one.  The sets are finite, so this stops.  The
    columns below start are then filled back to front from phase 0.
    """
    if stop is None:
        period = ana.cycle_cols
        cycle = [frozenset()] * period
        changed = True
        while changed:
            changed = False
            for p in reversed(range(period)):
                new = base(start + p) | pre(start + p + 1, cycle[(p + 1) % period])
                if new != cycle[p]:
                    cycle[p], changed = new, True
        later = cycle[0]
    else:
        start, cycle, later = max(stop, 0), None, frozenset()
    head = [None] * start
    for k in reversed(range(start)):
        later = head[k] = base(k) | pre(k + 1, later)

    def at(k):
        if k < 0:
            raise ValueError("column must be >= 0")
        if k < start:
            return head[k]
        if cycle is None:
            return frozenset()
        return cycle[(k - start) % len(cycle)]

    return at


def _useful_table(ana):
    """U_k, the variables whose column-k content reaches the output.

    U_k = base_k ∪ pre_{k+1}(U_{k+1}), where pre_c(S) is the variables the
    step into column c reads into S, and base_k is the output variables at
    the settling column, the growing last one after it and nothing before
    it.  From max(entry, settle + 1) on, both repeat with the cycle.
    """
    if not ana.in_domain:
        raise NotInDomain(ana.infinity)
    settle = ana.settle_col
    final = frozenset(ana.output_seq)
    last = frozenset(ana.output_seq[-1:])

    def base(k):
        return frozenset() if k < settle else final if k == settle else last

    def pre(col, later):
        subst = ana.update_at(col)
        return frozenset().union(*(_reads(subst[v]) for v in later))

    return _backward_fixpoint(ana, base, pre, max(ana.entry_col, settle + 1), None)


def _order_table(ana, horizon):
    """C_k of path_conditions, over the steps up to the horizon (None: all)."""

    def base(k):
        pairs = set()
        for rhs in ana.update_at(k + 1).values():
            occ = [v for kind, v in rhs if kind == "var"]
            pairs.update((u, v) for n, u in enumerate(occ) for v in occ[n + 1:])
        return frozenset(pairs)

    def pre(col, later):
        subst = ana.update_at(col)
        reads = {v: _reads(rhs) for v, rhs in subst.items()}
        return frozenset((u, v) for a, b in later for u in reads[a] for v in reads[b])

    return _backward_fixpoint(ana, base, pre, ana.entry_col, horizon)


def flows(t, word, i, j, x, y):
    """Exact copy count of x's content after i letters inside y after j >= i letters."""
    if i > j:
        raise ValueError("flows need i <= j, got %d > %d" % (i, j))
    ana = analyze_run(t, word)
    factor = [word.letter_at(col) for col in range(i + 1, j + 1)]
    e = flow_matrix(t, factor, saturate=False).entry(
        (ana.state_at(i), x), (ana.state_at(j), y)
    )
    return 0 if e is BOT else e[0]


def useful(t, word, x, i, analysis=None):
    """True iff x's content after i letters appears in the final output.

    The content must either flow into one of the output variables by the
    settling column, or into the growing last output variable at some column
    past settling.  Read off the column table of _useful_table.  Raises
    NotInDomain on rejected words.
    """
    ana = analysis if analysis is not None else analyze_run(t, word)
    return x in _useful_table(ana)(i)


def path_conditions(t, word, x, i, d, y, j, d2, horizon=None, cache=None):
    """Reachability from (x, i, d) to (y, j, d2) in the run's output structure.

    Decided from flows instead of the graph: both columns must be useful,
    and one of three situations must hold.  Descending from an in node:
    y's column-j content sits inside x's column-i content, that is x is in
    reach_set(y, j, i).  Arriving at an out node: y is in reach_set(x, i, j).
    Or both contents flow into one right-hand side at some later step, x's
    carrier strictly first: with m = max(i, j), some u in reach_set(x, i, m)
    and v in reach_set(y, j, m) have (u, v) in C_m.  That later step is only
    searched up to the horizon when one is given (matching a truncated
    graph), and over the whole run otherwise.

    C_k is the set of variable pairs (u, v) whose column-k contents meet in
    one right-hand side, u strictly first, at a step up to the horizon.  The
    step into column k + 1 sends each variable into the variables that read
    it, so u and v meet after that step exactly when some pair of their
    step sets is in C_{k+1}:

        C_k = cat(k + 1) ∪ {(u, v) : step_{k+1}(u) × step_{k+1}(v) meets C_{k+1}}

    with cat(c) the ordered pairs of one right-hand side at step c, and
    C_k = ∅ from the horizon on.  Splitting the query into pairs is exact,
    since step sets distribute over unions.  With a horizon the columns
    below it are filled back to front.  Without one, the true C (pairs that
    meet at some finite step) is the least solution: by induction on the
    distance to the meeting step, it lies inside every solution, and it is
    one.  The run repeats from the entry column with the cycle, so C does,
    and it is the least fixpoint of the recurrence over the cycle's phases,
    which _backward_fixpoint computes.  A forward scan from (x, i) and
    (y, j) could stop for the same reason: its states (phase, reach of x,
    reach of y) are finite, and "some later step" is their least fixpoint.
    """
    fc = cache if cache is not None else FlowCache(t, word)
    ana = fc.analysis
    if not ana.in_domain:
        raise NotInDomain(ana.infinity)
    if not (fc.useful(x, i) and fc.useful(y, j)):
        return False
    if d == "in" and j <= i and x in fc.reach_set(y, j, i):
        return True
    if d2 == "out" and i <= j and y in fc.reach_set(x, i, j):
        return True
    m = max(i, j)
    order = fc.order(m, horizon)
    vy = fc.reach_set(y, j, m)
    return any((u, v) in order for u in fc.reach_set(x, i, m) for v in vy)
