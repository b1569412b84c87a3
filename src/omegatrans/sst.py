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
monoid finite while still deciding whether the machine is 1-bounded (no
count ever reaches 2) and aperiodic.  `flows` and FlowCache keep counts
exact, without saturation, for the output structure queries in module
outputgraph.  The matrix view (`rows`, `entry`) pairs each count with the
coordinate tuple of the state run, as the entry algebra of module muller
describes it.
"""

from .muller import BOT, SummarySpace, aperiodicity_witness, generate_monoid
from .words import lasso


PAD = "⊥"


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


class Sst:
    """Deterministic streaming transducer with Muller output rules.

    update maps (state, letter) to a substitution given as {var: rhs} with
    rhs a tuple of ("lit", c) / ("var", x) items; variables missing from a
    substitution are filled in as identity.  F maps each accepting state set
    to the sequence of variables whose limit is the output.  Machines need
    not be copyless (is_copyless and is_1_bounded are separate checks), but
    the output rules must freeze x_1 .. x_{n-1} and extend x_n on every
    transition that stays inside their state set.
    """

    def __init__(self, states, alphabet, initial, delta, variables, update, F):
        self.states = tuple(states)
        self.alphabet = tuple(alphabet)
        self.initial = initial
        self.delta = dict(delta)
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables) or not self.variables:
            raise ValueError("variables must be distinct and non-empty")
        if initial not in self.states:
            raise ValueError("initial state %r not a state" % (initial,))
        for q in self.states:
            for a in self.alphabet:
                if (q, a) not in self.delta:
                    raise ValueError("delta is not total: missing (%r, %r)" % (q, a))
                if self.delta[(q, a)] not in self.states:
                    raise ValueError("delta leaves the state set at (%r, %r)" % (q, a))
        self.update = {}
        for key in self.delta:
            subst = dict(update.get(key, {}))
            for x, rhs in subst.items():
                if x not in self.variables:
                    raise ValueError("update at %r writes unknown variable %r" % (key, x))
                for item in rhs:
                    if item[0] == "var":
                        if item[1] not in self.variables:
                            raise ValueError(
                                "update at %r reads unknown variable %r" % (key, item[1])
                            )
                    elif item[0] != "lit":
                        raise ValueError("malformed rhs item %r at %r" % (item, key))
            for x in self.variables:
                subst.setdefault(x, (("var", x),))
            self.update[key] = subst
        self.F = {frozenset(P): tuple(seq) for P, seq in F.items()}
        if len(self.F) != len(F):
            raise ValueError("output rules repeat a state set")
        for P, seq in self.F.items():
            if not P or not P <= set(self.states):
                raise ValueError("bad output state set %r" % (set(P),))
            if not seq or len(set(seq)) != len(seq):
                raise ValueError("output sequence for %r must be distinct and non-empty" % (set(P),))
            if not set(seq) <= set(self.variables):
                raise ValueError("output sequence for %r uses unknown variables" % (set(P),))
        self.muller_sets = tuple(
            sorted(self.F, key=lambda P: tuple(sorted(map(str, P))))
        )
        check_output_shape(self.F, self.delta, self.update)

    def step(self, q, a):
        return self.delta[(q, a)]

    def run_factor(self, q, factor):
        """(end state, set of states of the run, endpoints included)."""
        seen = {q}
        for a in factor:
            q = self.delta[(q, a)]
            seen.add(q)
        return q, seen

    def initial_values(self):
        return {x: "" for x in self.variables}


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


def stream_output(vals, substs, entry, out_vars, k):
    """First k letters of the limit of the word out_vars along a lasso run.

    substs[c] takes the variable values of column c to those of column c+1,
    and substs[entry:] is the loop the run repeats forever.  Its composition
    σ keeps out_vars[:-1] fixed and sends the tail t = out_vars[-1] to
    t·rest, because Sst and SstSf check their output rules when built and
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
    the read values repeat.
    """
    ana = analyze_run(t, word)
    if not ana.in_domain:
        raise NotInDomain(ana.infinity)
    substs = [ana.update_at(col) for col in range(1, ana.entry_col + ana.cycle_cols + 1)]
    return stream_output(t.initial_values(), substs, ana.entry_col, ana.output_seq, k)


def values_after(t, word, i):
    """Variable contents after the run on word has consumed i letters."""
    ana = analyze_run(t, word)
    vals = t.initial_values()
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
    m = _flow_space(t, saturate).identity()
    for a in factor:
        m = m * flow_matrix_direct(t, a, saturate)
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


def sst_monoid(t, cap=10 ** 6):
    gens = {a: flow_matrix_direct(t, a) for a in t.alphabet}
    return generate_monoid(gens, _flow_space(t, True).identity(), cap)


def is_1_bounded(t, cap=10 ** 6):
    """(verdict, witness): witness is a word some of whose flow counts reach 2."""
    mon = sst_monoid(t, cap)
    for m, w in sorted(mon.elements.items(), key=lambda kv: (len(kv[1]), kv[1])):
        if m.max_count() >= 2:
            return False, w
    return True, None


def is_aperiodic_sst(t, cap=10 ** 6):
    """(verdict, witness): witness is a word whose flow-matrix powers cycle."""
    w = aperiodicity_witness(sst_monoid(t, cap))
    return (w is None), w


class FlowCache:
    """Exact flow counts between columns of one run, memoized.

    flows(i, j, X, Y) is the number of copies of X's content after i letters
    that sit inside Y's content after j letters, i <= j, counted without
    saturation.
    """

    def __init__(self, t, word):
        self.t = t
        self.word = word
        self.analysis = analyze_run(t, word)
        self._letters = {}
        self._products = {}
        self._identity = _flow_space(t, False).identity()
        self._useful = {}
        self._reach = {}
        self._cat = {}

    def letter(self, a):
        if a not in self._letters:
            self._letters[a] = flow_matrix_direct(self.t, a, saturate=False)
        return self._letters[a]

    def product(self, i, j):
        if i == j:
            return self._identity
        if (i, j) not in self._products:
            m = self.product(i, j - 1) if j - 1 > i else self._identity
            self._products[(i, j)] = m * self.letter(self.word.letter_at(j))
        return self._products[(i, j)]

    def flows(self, i, j, x, y):
        e = self.product(i, j).entry(
            (self.analysis.state_at(i), x), (self.analysis.state_at(j), y)
        )
        return 0 if e is BOT else e[0]

    def reach_set(self, x, i, k):
        """Variables holding a copy of x's column-i content at column k."""
        if (x, i, k) not in self._reach:
            if k == i:
                self._reach[(x, i, k)] = frozenset([x])
            else:
                self._reach[(x, i, k)] = _step_vars(
                    self.t, self.analysis.update_at(k), self.reach_set(x, i, k - 1)
                )
        return self._reach[(x, i, k)]

    def cat_pairs(self, col):
        """Ordered variable pairs (u, v), u strictly before v in a rhs at step col."""
        if col not in self._cat:
            pairs = set()
            for rhs in self.analysis.update_at(col).values():
                occ = [v for kind, v in rhs if kind == "var"]
                for a in range(len(occ)):
                    for b in range(a + 1, len(occ)):
                        pairs.add((occ[a], occ[b]))
            self._cat[col] = pairs
        return self._cat[col]

    def useful(self, x, i):
        if (x, i) not in self._useful:
            self._useful[(x, i)] = useful(self.t, self.word, x, i, self.analysis)
        return self._useful[(x, i)]


def _step_vars(t, subst, sources):
    return frozenset(
        y
        for y in t.variables
        if any(kind == "var" and v in sources for kind, v in subst[y])
    )


def flows(t, word, i, j, x, y):
    """Exact copy count of x's content after i letters inside y after j letters."""
    return FlowCache(t, word).flows(i, j, x, y)


def useful(t, word, x, i, analysis=None):
    """True iff x's content after i letters appears in the final output.

    The content must either flow into one of the output variables by the
    settling column, or into the growing last output variable at some column
    past settling.  Raises NotInDomain on rejected words.
    """
    if i < 0:
        raise ValueError("column must be >= 0")
    ana = analysis if analysis is not None else analyze_run(t, word)
    if not ana.in_domain:
        raise NotInDomain(ana.infinity)
    seq = ana.output_seq
    out_vars = set(seq)
    last = seq[-1]
    jcol = ana.settle_col
    anchor = max(jcol + 1, i, ana.entry_col)
    cur = frozenset([x])
    col = i
    seen = set()
    while True:
        if col == jcol and cur & out_vars:
            return True
        if col > jcol and last in cur:
            return True
        if not cur:
            return False
        if col >= anchor:
            key = ((col - ana.entry_col) % ana.cycle_cols, cur)
            if key in seen:
                return False
            seen.add(key)
        col += 1
        cur = _step_vars(t, ana.update_at(col), cur)


def path_conditions(t, word, x, i, d, y, j, d2, horizon=None, cache=None):
    """Reachability from (x, i, d) to (y, j, d2) in the run's output structure.

    Decided from flow counts instead of the graph: both columns must be
    useful, and one of three situations must hold.  Descending from an in
    node: y's column-j content sits inside x's column-i content.  Arriving at
    an out node: x's content sits inside y's.  Or both contents flow into one
    right-hand side at some later step, x's carrier strictly before y's.
    With a horizon, that later step is only searched up to it (matching a
    truncated graph); without one the search runs over the whole lasso.
    """
    fc = cache if cache is not None else FlowCache(t, word)
    ana = fc.analysis
    if not ana.in_domain:
        raise NotInDomain(ana.infinity)
    if not (fc.useful(x, i) and fc.useful(y, j)):
        return False
    if d == "in" and j <= i and fc.flows(j, i, y, x) >= 1:
        return True
    if d2 == "out" and i <= j and fc.flows(i, j, x, y) >= 1:
        return True
    return _cat_condition(fc, x, i, y, j, horizon)


def _cat_condition(fc, x, i, y, j, horizon):
    ana = fc.analysis
    start = max(i, j)
    if horizon is not None:
        for k in range(start, horizon):
            vx = fc.reach_set(x, i, k)
            vy = fc.reach_set(y, j, k)
            if not vx or not vy:
                return False
            pairs = fc.cat_pairs(k + 1)
            if any((u, v) in pairs for u in vx for v in vy):
                return True
        return False
    vx = fc.reach_set(x, i, start)
    vy = fc.reach_set(y, j, start)
    anchor = max(start, ana.entry_col)
    seen = set()
    k = start
    while True:
        if not vx or not vy:
            return False
        if k >= anchor:
            key = ((k - ana.entry_col) % ana.cycle_cols, vx, vy)
            if key in seen:
                return False
            seen.add(key)
        pairs = fc.cat_pairs(k + 1)
        if any((u, v) in pairs for u in vx for v in vy):
            return True
        k += 1
        subst = ana.update_at(k)
        vx = _step_vars(fc.t, subst, vx)
        vy = _step_vars(fc.t, subst, vy)
