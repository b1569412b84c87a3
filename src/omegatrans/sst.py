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
path_conditions has two cases: for j <= i it reads the reach set of
(y, j) at column i against the successors of x in the meeting table C_i,
and for i < j the reach set of (x, i) at column j against the
predecessors of y in C_j.  Each reach row is the words.lasso of a reach
set's run, and rows and tables are read through words.fold, which is exact
because the run repeats its cycle, so a query costs the same at any column.
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
    run_factor,
)
from .words import PAD, fold, lasso, spell  # PAD is re-exported as sst.PAD


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
        """State at column col >= 0; IndexError for a negative column."""
        return self._cols[fold(col, self.entry_col, self.cycle_cols)]

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
    block = ""
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
    return spell("".join(pieces), block, k)


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
        q, seen = run_factor(t.delta, p, factor)
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
    exactly when its target is in that set.  useful(x, i) and sides(k,
    horizon) read the two column tables of path_conditions, U_k and C_k,
    each built once per cache and horizon by _backward_fixpoint; sides
    splits C_k by the first and by the second variable of its pairs, once
    per column and horizon.

    A reach row, the sets of one (x, i) at columns i, i + 1, ..., is a
    words.lasso, built once per (x, i).  From the entry column on, the step
    out of a column depends on it only through its phase (column - entry)
    mod cycle_cols, because the state run and the word both repeat with
    that cycle.  So the row repeats from its first repeated (reach set,
    phase) pair on, and later columns are read through words.fold.  The
    fold is exact, and a row holds at most entry + cycle_cols · 2^|X| sets
    whatever the column asked for.  The useful table repeats with the cycle
    from max(entry, settle + 1) on, and so does C from the entry on when
    there is no horizon; with one, C is a list up to the horizon, built
    once.  So a query's time and memory do not depend on how far apart or
    how far out its columns are.
    """

    def __init__(self, t, word):
        self.t = t
        self.analysis = analyze_run(t, word)
        self._reach = {}
        self._useful = None
        self._order = {}
        self._sides = {}

    def reach_set(self, x, i, k):
        """Variables holding a copy of x's column-i content at column k >= i >= 0."""
        if not 0 <= i <= k:
            raise ValueError("reach_set needs 0 <= i <= k, got i = %d, k = %d" % (i, k))
        row = self._reach.get((x, i))
        if row is None:
            ana = self.analysis
            row = self._reach[(x, i)] = lasso(
                frozenset([x]),
                lambda sources, n: _step_vars(self.t, ana.update_at(i + n + 1), sources),
                max(ana.entry_col - i, 0), ana.cycle_cols)
        values, entry, cycle = row
        return values[fold(k - i, entry, cycle)]

    def useful(self, x, i):
        if self._useful is None:
            self._useful = _useful_table(self.analysis)
        return x in self._useful(i)

    def sides(self, k, horizon):
        """(After_k, Before_k) as dicts: After_k[u] holds the v and
        Before_k[v] the u of the pairs (u, v) of C_k, the pairs whose
        column-k contents meet in one right-hand side, u strictly first, at
        a step up to the horizon (None: any step).

        C_k is empty from the horizon on, and repeats with the cycle from
        the entry column on when there is no horizon, so k is folded first.
        """
        if horizon is None:
            k = fold(k, self.analysis.entry_col, self.analysis.cycle_cols)
        elif k > horizon:
            k = horizon
        split = self._sides.get((k, horizon))
        if split is None:
            table = self._order.get(horizon)
            if table is None:
                table = self._order[horizon] = _order_table(self.analysis, horizon)
            after, before = {}, {}
            for u, v in table(k):
                after.setdefault(u, set()).add(v)
                before.setdefault(v, set()).add(u)
            split = self._sides[(k, horizon)] = (after, before)
        return split


def _step_vars(t, subst, sources):
    return frozenset(
        y
        for y in t.variables
        if any(kind == "var" and v in sources for kind, v in subst[y])
    )


def _backward_fixpoint(ana, base, pre, start, stop):
    """The least column sets T_k = base(k) ∪ pre(k + 1, T_{k+1}), as a lookup.

    pre(c, S) is the part of column c - 1 that the step into column c sends
    into S, and both it and base are monotone.  The table is a lasso, the
    columns below start and then a cycle of phases, read through
    words.fold.  With a stop column, start is the stop and the cycle is the
    one value ∅.  Without one, base(k) and pre(k + 1, ·) must depend on
    k >= start only through the phase (k - start) mod cycle_cols.  The
    phases are then iterated from ∅ until a whole pass changes nothing:
    every value stays below the least solution (monotone steps from ∅), and
    a pass without change is a solution, so the result is the least one.
    The sets are finite, so this stops.  Either way, the columns below start
    are then filled back to front from phase 0.
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
    else:
        start, period, cycle = max(stop, 0), 1, [frozenset()]
    values = [None] * start + cycle
    later = cycle[0]
    for k in reversed(range(start)):
        later = values[k] = base(k) | pre(k + 1, later)

    def at(k):
        if k < 0:
            raise ValueError("column must be >= 0")
        return values[fold(k, start, period)]

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

    Decided from flows instead of the graph.  Both columns must be useful
    (checked last: the nodes of an output graph all are, and most pairs of
    them are not linked), and, with R(x, i, k) = reach_set(x, i, k), the
    pair must be linked in one of two cases:

    - j <= i: d == "in" and x in R(y, j, i), that is y's column-j content
      sits inside x's column-i content; or d2 == "out" and (x, i) == (y, j);
      or R(y, j, i) meets After_i(x).
    - i < j: d2 == "out" and y in R(x, i, j), that is x's column-i content
      ends up inside y's column-j content; or R(x, i, j) meets Before_j(y).

    After_m(u) = {v : (u, v) in C_m} and Before_m(v) = {u : (u, v) in C_m},
    split once per column and horizon by FlowCache.sides.  The meeting
    clause is the general one, some u in R(x, i, m) and v in R(y, j, m) with
    (u, v) in C_m for m = max(i, j): both contents flow into one right-hand
    side at some later step, x's carrier strictly first.  Since R(x, i, i)
    is {x}, one side of the pair is fixed, and a query needs one reach set.
    The later step is only searched up to the horizon when one is given
    (matching a truncated graph), and over the whole run otherwise.  Raises
    ValueError for a side other than "in" or "out", or a negative column.

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
    The reach rows, the useful sets and, without a horizon, C all fold onto
    the run's cycle (FlowCache), so a query costs the same however far
    apart, or however far out, its columns are.
    """
    if d not in ("in", "out") or d2 not in ("in", "out"):
        raise ValueError("sides must be 'in' or 'out', got %r and %r" % (d, d2))
    fc = cache if cache is not None else FlowCache(t, word)
    ana = fc.analysis
    if not ana.in_domain:
        raise NotInDomain(ana.infinity)
    if j <= i:
        reach = fc.reach_set(y, j, i)
        linked = (d == "in" and x in reach or d2 == "out" and (x, i) == (y, j)
                  or not reach.isdisjoint(fc.sides(i, horizon)[0].get(x, ())))
    else:
        reach = fc.reach_set(x, i, j)
        linked = (d2 == "out" and y in reach
                  or not reach.isdisjoint(fc.sides(j, horizon)[1].get(y, ())))
    return linked and fc.useful(x, i) and fc.useful(y, j)
