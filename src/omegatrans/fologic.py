"""First-order logic over infinite word models.

A word over Sigma is the structure with universe {1, 2, ...}, the order <=,
and a unary predicate L_a per letter a.  Formulas are built from the atoms
x = y, x <= y, x < y and L_a(x) with the usual connectives and quantifiers.

Evaluation on an ultimately periodic word w = u v^omega is exact.  A
quantifier ranges over the finite set 1..top + |u| + c_d |v|, where top is
the largest position assigned so far (0 for a sentence), d is the quantifier
depth of the whole formula and c_d = 2^d + 1 (``witness_margin``).

Why this is enough.  Write p = |u| and q = |v|, and let Q x. phi be a
subformula under an assignment a whose positions are at most top.  Suppose
x > top + p + c_d q satisfies phi; we show that x - q does too, so repeated
shifting brings some witness into range (and dually for A, through !).
Mark each position with the set of variables that sit on it, so that
(w, a, x) is a word over an extended alphabet.  Cut it, and (w, a, x - q),
as

    w[1..top] . w[top+1..x-1] . w[x..]
    w[1..top] . w[top+1..x-q-1] . w[x-q..]

Both x and x - q lie past u, so the two right factors are the same
infinite word, marks included.  With r = max(top, p), both middle factors
start with w[top+1..r] and continue inside v^omega from the same phase:
they are s . v'^n . t and s . v'^(n-1) . t for a rotation v' of v, a
proper prefix t of v' and n >= c_d, because x - 1 - r >= c_d q.  For FO[<]
with k nested quantifiers, y^n and y^(n+1) satisfy the same sentences once
n >= 2^k (Thomas, "Languages, Automata, and Logic", 1997; Straubing,
"Finite Automata, Formal Logic, and Circuit Complexity", 1994).  Here
k <= d - 1 and n - 1 >= 2^d, so the middle factors agree on every formula
of depth k, and since this equivalence is a congruence for concatenation
(an Ehrenfeucht-Fraisse game plays the three factors separately), phi holds
at x - q exactly when it holds at x.  A range larger than the bound is
exact as well: it only adds real positions.

There is one implementation of the semantics, the numpy grid evaluator
``bulk_evaluate``: every free variable is assigned an array of positions,
and a quantifier adds an axis over its range.  ``evaluate`` is the same
evaluator on a 0-d grid.  Positions are integers starting at 1; both
raise TypeError for positions of any other dtype (floats, bools and
strings are not read as positions) and ValueError for a position below 1.

The grid evaluator lives in the private module ``_fogrid``, the only
part of the formula code that uses numpy, and the first evaluation imports
it.  Formulas, their syntax and their measures (``parse_formula``,
``format_formula``, ``free_variables``, ``quantifier_depth``,
``witness_margin``) need no numpy, so loading an ``fot`` machine file does
not load it either.
"""

from typing import NamedTuple


class Eq(NamedTuple):
    x: str
    y: str


class Leq(NamedTuple):
    x: str
    y: str


class Less(NamedTuple):
    x: str
    y: str


class Label(NamedTuple):
    letter: str
    x: str


class Not(NamedTuple):
    body: object


class And(NamedTuple):
    left: object
    right: object


class Or(NamedTuple):
    left: object
    right: object


class Implies(NamedTuple):
    left: object
    right: object


class Exists(NamedTuple):
    var: str
    body: object


class Forall(NamedTuple):
    var: str
    body: object


# Plain tuple equality would make Eq("x", "y") == Leq("x", "y") and
# And(f, g) == Or(f, g); formulas compare and hash by their class as well.
def _formula_eq(f, g):
    return type(f) is type(g) and tuple.__eq__(f, g)


def _formula_ne(f, g):
    return not _formula_eq(f, g)


def _formula_hash(f):
    return hash((type(f), tuple(f)))


for _cls in (Eq, Leq, Less, Label, Not, And, Or, Implies, Exists, Forall):
    _cls.__eq__, _cls.__ne__, _cls.__hash__ = _formula_eq, _formula_ne, _formula_hash


def quantifier_depth(f):
    if isinstance(f, (Eq, Leq, Less, Label)):
        return 0
    if isinstance(f, Not):
        return quantifier_depth(f.body)
    if isinstance(f, (And, Or, Implies)):
        return max(quantifier_depth(f.left), quantifier_depth(f.right))
    if isinstance(f, (Exists, Forall)):
        return 1 + quantifier_depth(f.body)
    raise TypeError("not a formula: %r" % (f,))


def free_variables(f):
    if isinstance(f, (Eq, Leq, Less)):
        return {f.x, f.y}
    if isinstance(f, Label):
        return {f.x}
    if isinstance(f, Not):
        return free_variables(f.body)
    if isinstance(f, (And, Or, Implies)):
        return free_variables(f.left) | free_variables(f.right)
    if isinstance(f, (Exists, Forall)):
        return free_variables(f.body) - {f.var}
    raise TypeError("not a formula: %r" % (f,))


def witness_margin(f, word):
    """|u| + (2^d + 1)|v| for f of quantifier depth d on u v^omega.

    A quantifier of f under positions at most top needs to range only over
    1..top + witness_margin(f, word); the module docstring proves it.
    """
    return len(word.prefix) + (2 ** quantifier_depth(f) + 1) * len(word.period)


_grid_evaluate = None


# evaluate and bulk_evaluate share this body instead of one calling the
# other, so that a trace of bulk_evaluate sees only the grid evaluations.
def _evaluate(f, word, env):
    global _grid_evaluate
    missing = free_variables(f) - set(env)
    if missing:
        raise ValueError("unassigned free variables: %s" % sorted(missing))
    if _grid_evaluate is None:
        # The first evaluation loads the grid evaluator, and numpy with it.
        # Later calls skip the import statement, which costs about a third
        # of evaluating an atomic formula.
        from ._fogrid import grid_evaluate as _grid_evaluate
    return _grid_evaluate(f, word, env, witness_margin(f, word))


def bulk_evaluate(f, word, env):
    """Evaluate f on a whole grid of assignments at once.

    env maps each free variable to an integer array of 1-based positions;
    the arrays broadcast against each other and the result is a bool array
    of the broadcast shape.
    """
    return _evaluate(f, word, env)


def evaluate(f, word, assignment=None):
    """Whether f holds on the word under the assignment.

    assignment maps the free variables to 1-based positions, which may lie
    anywhere in the word.
    """
    return bool(_evaluate(f, word, assignment or {}))


# ---------------------------------------------------------------------------
# Concrete syntax.
#
#   E x. body      A x. body       (quantifiers scope to the end)
#   f -> g         f | g           f & g          ! f
#   x = y          x <= y          x < y          La(x)
#
# Precedence, loosest first: ->, |, &, !.  The implication is
# right-associative.  A label atom is L followed by one letter character and
# a parenthesized variable; use a backslash to escape unusual letters.
# ---------------------------------------------------------------------------


def parse_formula(text):
    p = _Parser(text)
    f = p.parse_implies()
    p.skip_ws()
    if p.pos != len(p.text):
        raise ValueError("trailing input at %d in %r" % (p.pos, text))
    return f


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        if self.pos < len(self.text):
            return self.text[self.pos]
        return ""

    def eat(self, s):
        self.skip_ws()
        if not self.text.startswith(s, self.pos):
            raise ValueError("expected %r at %d in %r" % (s, self.pos, self.text))
        self.pos += len(s)

    def try_eat(self, s):
        self.skip_ws()
        if self.text.startswith(s, self.pos):
            self.pos += len(s)
            return True
        return False

    def ident(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if start == self.pos:
            raise ValueError("expected identifier at %d in %r" % (start, self.text))
        return self.text[start : self.pos]

    def parse_implies(self):
        left = self.parse_or()
        if self.try_eat("->"):
            return Implies(left, self.parse_implies())
        return left

    def parse_or(self):
        f = self.parse_and()
        while True:
            self.skip_ws()
            # careful: '|' but not part of '->' handling; single char test is fine
            if self.peek() == "|":
                self.eat("|")
                f = Or(f, self.parse_and())
            else:
                return f

    def parse_and(self):
        f = self.parse_unary()
        while self.peek() == "&":
            self.eat("&")
            f = And(f, self.parse_unary())
        return f

    def parse_unary(self):
        self.skip_ws()
        if self.try_eat("!"):
            return Not(self.parse_unary())
        if self.try_eat("("):
            f = self.parse_implies()
            self.eat(")")
            return f
        # quantifiers: E x. ... / A x. ...
        for mark, cls in (("E", Exists), ("A", Forall)):
            here = self.pos
            if self.try_eat(mark):
                nxt = self.peek()
                if nxt and (nxt.isalpha() or nxt == "_"):
                    var = self.ident()
                    if self.try_eat("."):
                        return cls(var, self.parse_implies())
                self.pos = here
        # label atom: L<char>(x)
        if self.text.startswith("L", self.pos) and self.pos + 1 < len(self.text):
            here = self.pos
            self.pos += 1
            ch = self.text[self.pos]
            if ch == "\\" and self.pos + 1 < len(self.text):
                self.pos += 1
                ch = self.text[self.pos]
            self.pos += 1
            if self.try_eat("("):
                var = self.ident()
                self.eat(")")
                return Label(ch, var)
            self.pos = here
        # comparison atom
        x = self.ident()
        if self.try_eat("<="):
            return Leq(x, self.ident())
        if self.try_eat("<"):
            return Less(x, self.ident())
        self.eat("=")
        return Eq(x, self.ident())


def format_formula(f):
    def esc(ch):
        return "\\" + ch if ch in "(\\" else ch

    if isinstance(f, Eq):
        return "%s = %s" % (f.x, f.y)
    if isinstance(f, Leq):
        return "%s <= %s" % (f.x, f.y)
    if isinstance(f, Less):
        return "%s < %s" % (f.x, f.y)
    if isinstance(f, Label):
        return "L%s(%s)" % (esc(f.letter), f.x)
    if isinstance(f, Not):
        return "!(%s)" % format_formula(f.body)
    if isinstance(f, And):
        return "(%s) & (%s)" % (format_formula(f.left), format_formula(f.right))
    if isinstance(f, Or):
        return "(%s) | (%s)" % (format_formula(f.left), format_formula(f.right))
    if isinstance(f, Implies):
        return "(%s) -> (%s)" % (format_formula(f.left), format_formula(f.right))
    if isinstance(f, Exists):
        return "E %s. (%s)" % (f.var, format_formula(f.body))
    if isinstance(f, Forall):
        return "A %s. (%s)" % (f.var, format_formula(f.body))
    raise TypeError("not a formula: %r" % (f,))


# ---------------------------------------------------------------------------
# Shorthands used by transducer formulas.
# ---------------------------------------------------------------------------


def strictly_before(x, y):
    return And(Leq(x, y), Not(Eq(x, y)))


def is_first(x, y="_f"):
    """x is position 1.  y names the bound variable."""
    return Not(Exists(y, strictly_before(y, x)))


def between_positions(x, y, z):
    """z lies strictly between x and y (in either orientation)."""
    return Or(
        And(strictly_before(y, z), strictly_before(z, x)),
        And(strictly_before(x, z), strictly_before(z, y)),
    )


def between_letter(x, y, letter, z="_b"):
    """Some position strictly between x and y carries the letter."""
    return Exists(z, And(Label(letter, z), between_positions(x, y, z)))


def reaches_letter(x, letter, y="_r"):
    """Some position strictly after x carries the letter."""
    return Exists(y, And(strictly_before(x, y), Label(letter, y)))


def is_string():
    """The order axioms picking out string-like models.

    Its quantifier depth (4) is pinned by tests.
    """
    x, y, yp, z = "x", "y", "_y2", "_z"
    succ = And(strictly_before(x, y), Not(Exists(z, between_positions(x, y, z))))
    succ2 = And(strictly_before(x, yp), Not(Exists(z, between_positions(x, yp, z))))
    unique = Forall(y, Forall(yp, Implies(And(succ, succ2), Eq(y, yp))))
    exists = Exists(y, succ)
    total = Forall(x, Forall(y, Or(Leq(x, y), Leq(y, x))))
    return And(total, Forall(x, And(unique, exists)))
