"""Ultimately periodic infinite words.

An infinite word is represented as ``prefix . period^omega`` where both parts
are ordinary Python strings of single-character letters.  Every word is kept in
a canonical form so that structural equality coincides with equality of the
infinite words themselves:

* the period is primitive (not a proper power of a shorter word), and
* the prefix is as short as possible (a prefix ending with the same letter the
  period ends with can shed that letter by rotating the period).

Positions are 1-based throughout: position i carries the i-th letter.
Columns count letters read: column 0 is before the first letter, column i
after the i-th.  Every deterministic run on such a word is a lasso, and this
module is the one place that handles lassos: lasso() finds the run's lasso
for all the runners, fold() reads a column of it, and spell() writes out
the first k letters of an output given as head . block^omega.
"""


PAD = "⊥"


class UPWord:
    """An ultimately periodic word u . v^omega in canonical form."""

    __slots__ = ("prefix", "period")

    def __init__(self, prefix, period):
        if not period:
            raise ValueError("period must be non-empty")
        period = _primitive_root(period)
        # Shift letters from the end of the prefix into the period whenever the
        # prefix's last letter equals the period's last letter: u.l (l v')^w and
        # u (v' l)^w are the same word when l closes the period.
        while prefix and prefix[-1] == period[-1]:
            prefix = prefix[:-1]
            period = period[-1] + period[:-1]
        self.prefix = prefix
        self.period = period

    def __eq__(self, other):
        if not isinstance(other, UPWord):
            return NotImplemented
        return self.prefix == other.prefix and self.period == other.period

    def __hash__(self):
        return hash((self.prefix, self.period))

    def __repr__(self):
        return "UPWord(%r, %r)" % (self.prefix, self.period)

    def __str__(self):
        return format_word(self)

    def letter_at(self, i):
        """Letter at 1-based position i."""
        if i < 1:
            raise IndexError("positions are 1-based, got %d" % i)
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        return self.period[(i - len(self.prefix) - 1) % len(self.period)]

    def prefix_of(self, n):
        """The first n >= 0 letters as a plain string."""
        if n < 0:
            raise IndexError("cannot take a negative number of letters")
        return spell(self.prefix, self.period, n)

    def suffix(self, j):
        """The word with the first j letters removed (j >= 0)."""
        if j < 0:
            raise IndexError("cannot drop a negative number of letters")
        if j <= len(self.prefix):
            return UPWord(self.prefix[j:], self.period)
        r = (j - len(self.prefix)) % len(self.period)
        return UPWord("", self.period[r:] + self.period[:r])


def _primitive_root(v):
    """Shortest w with v = w^k.  Classic trick: search v in (v+v) from index 1."""
    i = (v + v).find(v, 1)
    if i < len(v):
        return v[:i]
    return v


def lasso(start, step, stable, period):
    """Lasso of a deterministic run over the columns of an ultimately periodic word.

    The run is at start in column 0 and moves from column c to c+1 by
    step(value, c).  From column stable on, the step depends on the column
    only through its class (c - stable) mod period.  Hence the first column
    whose (value, class) pair was seen before closes a cycle that the run
    repeats forever.

    Returns (values, entry, cycle).  values lists the values of columns
    0 .. entry + cycle, and the last one equals values[entry].  entry is the
    first column of that repeated pair, and cycle is the distance to its
    repeat, a multiple of period.  The set of values the run visits forever is
    set(values[entry:]).
    """
    values = [start]
    value = start
    for col in range(stable):
        value = step(value, col)
        values.append(value)
    first = {}
    col = stable
    while True:
        key = (value, (col - stable) % period)
        if key in first:
            return values, first[key], col - first[key]
        first[key] = col
        value = step(value, col)
        values.append(value)
        col += 1


def fold(col, entry, cycle):
    """Index into lasso's values of the run's value at column col >= 0.

    Columns below entry are their own index; from entry on the run repeats
    with the cycle, so col reads entry + (col - entry) mod cycle.
    """
    if col < entry:
        if col < 0:
            raise IndexError("columns are >= 0, got %d" % col)
        return col
    return entry + (col - entry) % cycle


def spell(head, block, k):
    """The first k letters of head . block^omega, or of head padded with PAD
    when block is empty (a finite output)."""
    if block:
        head += block * -(-(k - len(head)) // len(block))
    return head[:k].ljust(k, PAD)


def first_divergence(w1, w2):
    """First 1-based position where two words differ, or None if equal.

    Canonical forms make equality decidable, so the scan is bounded by the
    point after which both words are in lockstep periodic behavior.
    """
    if w1 == w2:
        return None
    bound = max(len(w1.prefix), len(w2.prefix)) + _lcm(len(w1.period), len(w2.period))
    for i in range(1, bound + 1):
        if w1.letter_at(i) != w2.letter_at(i):
            return i
    # Two ultimately periodic words agreeing past the common prefix plus one
    # lcm of the periods are equal, contradicting the canonical-form check.
    raise AssertionError("canonical forms differ but no divergence found")


def _lcm(a, b):
    import math

    return a * b // math.gcd(a, b)


def distance(w1, w2):
    """Cantor-style distance: 1/2^j with j the first divergence, 0 if equal."""
    j = first_divergence(w1, w2)
    if j is None:
        return 0.0
    return 0.5 ** j


def parse_word(text):
    """Parse the PREFIX(PERIOD)^w notation.

    Letters are single characters; a backslash escapes a literal parenthesis or
    backslash.  Examples: ``ab#(a)^w``, ``(ab)^w``, ``\\((a)^w``.
    """
    if not text.endswith("^w"):
        raise ValueError("word must end with ^w: %r" % text)
    body = text[:-2]
    letters = []          # list of (char, escaped-flag)
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            if i + 1 >= len(body):
                raise ValueError("dangling escape in %r" % text)
            letters.append((body[i + 1], True))
            i += 2
        else:
            letters.append((ch, False))
            i += 1
    opens = [k for k, (ch, esc) in enumerate(letters) if ch == "(" and not esc]
    if len(opens) != 1 or not letters or letters[-1] != (")", False):
        raise ValueError("expected PREFIX(PERIOD)^w, got %r" % text)
    k = opens[0]
    prefix = "".join(ch for ch, _ in letters[:k])
    period = "".join(ch for ch, _ in letters[k + 1:-1])
    closes = [j for j, (ch, esc) in enumerate(letters) if ch == ")" and not esc]
    if closes != [len(letters) - 1]:
        raise ValueError("unbalanced parentheses in %r" % text)
    if not period:
        raise ValueError("empty period in %r" % text)
    return UPWord(prefix, period)


def format_word(w):
    """Inverse of parse_word on canonical words."""
    esc = lambda s: "".join("\\" + c if c in "()\\" else c for c in s)
    return "%s(%s)^w" % (esc(w.prefix), esc(w.period))


def random_upword(rng, alphabet, max_prefix=2, max_period=2):
    """A word whose prefix and period lengths rng draws from 0..max_prefix and
    1..max_period, letter by letter from alphabet."""
    prefix = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_prefix)))
    period = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, max_period)))
    return UPWord(prefix, period)
