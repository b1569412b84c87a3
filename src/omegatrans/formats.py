"""One text format family for every machine kind, selected by a `kind:` header.

A file is a sequence of `key: value` lines; blank lines and lines starting
with "#" are skipped.  The kinds:

    dma     states:/initial:/alphabet:/delta: q,a -> q'/muller: {q} {r}
    dfa     like dma without the muller line (used embedded, for lookbehind)
    sst     adds vars:, update: q,a: X := aXb; Y := YX, output: {q} -> x z
    sst-sf  the sst format with guarded keys q, r, a, p in its delta: and
            update: lines, "_" for an absent guard (r is always "_")
    2wst    trans: q, r, a, p -> q', "out", +1|0|-1 with the same guarded keys
    fot     alphabet:/copies:/dom:/pos: c,g: formula/ord: c,d: formula

2wst files may end with `lookbehind:` / `lookahead:` sections, each holding
an embedded dfa / dma block; sst-sf files only with a `lookahead:` one,
since the conversion resolves look-behind into the states of the guarded
machine.  A section the kind does not take is refused at its line.  One
table, KINDS, pairs each kind name with its class, parser, printer,
sections and directives; a directive the kind does not list is refused
with its line number.  Transition tables are exact: a
key outside states x alphabet (or, for guarded kinds, outside the machine's
states, letters and guard states) or an update for a transition that does
not exist is refused.  Identity update entries are left out when printing
and filled back in by the constructors when parsing, so
parse_machine_text(print_machine(m)) rebuilds m field for field.

The format spells states and variables as bare tokens (letters, digits and
_ @ .); machines whose states are structured values -- the conversion and
elimination results -- are printed through printable_machine, which renames
states to s0, s1, ... first.  All-digit tokens are read back as ints.
"""

import re
from collections import namedtuple

from .constructions import SstSf
from .fologic import format_formula, parse_formula
from .fot import Fot
from .muller import Dma
from .sst import Sst, format_rhs, parse_rhs
from .twowst import LEFT, MARK, RIGHT, STAY, Dfa, TwoWst
from .words import parse_word

_TOKEN = re.compile(r"[A-Za-z0-9_@.]+\Z")


class FormatError(ValueError):
    """A machine or corpus file that does not follow the text format."""


def _fail(lineno, message):
    raise FormatError("line %d: %s" % (lineno, message))


def _split_sections(text):
    """(main, {section: (lineno, lines)}), with lines as (lineno, key, rest)
    triples and a section's lineno that of its header line."""
    buckets = {"main": (0, [])}
    current = "main"
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line in ("lookahead:", "lookbehind:"):
            name = line[:-1]
            if name in buckets:
                _fail(lineno, "duplicate %s section" % name)
            buckets[name] = (lineno, [])
            current = name
            continue
        if ":" not in line:
            _fail(lineno, "expected 'key: value', got %r" % line)
        key, rest = line.split(":", 1)
        buckets[current][1].append((lineno, key.strip(), rest.strip()))
    return buckets.pop("main")[1], buckets


def _block(lines):
    """(kind, fields) of a block of lines led by its `kind:` line.

    fields maps each directive to its (lineno, rest) pairs, and "kind" to
    the `kind:` line's.  A directive the kind does not list is refused, and
    so is a second line of one of its single directives.
    """
    if not lines or lines[0][1] != "kind":
        _fail(lines[0][0] if lines else 1, "the first line must be 'kind: ...'")
    lineno, _, name = lines[0]
    if name not in KINDS:
        _fail(lineno, "unknown kind %r" % name)
    kind = KINDS[name]
    fields = {"kind": [(lineno, name)]}
    for lineno, key, rest in lines[1:]:
        if key not in kind.single + kind.repeated:
            _fail(lineno, "unknown directive %r for kind %r" % (key, name))
        if key in kind.single and key in fields:
            _fail(lineno, "duplicate %r line" % key)
        fields.setdefault(key, []).append((lineno, rest))
    return kind, fields


def _one(fields, key):
    """The (lineno, rest) of a single directive; a missing one is reported
    at its block's `kind:` line."""
    if key not in fields:
        _fail(fields["kind"][0][0], "missing %r line" % key)
    return fields[key][0]


def _token(text, lineno):
    text = text.strip()
    if not text:
        _fail(lineno, "empty name")
    return int(text) if text.isdigit() else text


def _copy_number(text, lineno):
    text = text.strip()
    if not text.isdigit():
        _fail(lineno, "copy numbers are counts, got %r" % text)
    return int(text)


def _guard_token(text, lineno):
    text = text.strip()
    return None if text == "_" else _token(text, lineno)


def _letter(text, lineno):
    text = text.strip()
    if len(text) != 1:
        _fail(lineno, "letters are single characters, got %r" % text)
    return text


def _state_set(text, lineno):
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        _fail(lineno, "expected a {..} state set, got %r" % text)
    inner = text[1:-1].strip()
    if not inner:
        return frozenset()
    return frozenset(_token(part, lineno) for part in inner.split(","))


def _split_arrow(text, lineno):
    parts = text.split("->")
    if len(parts) != 2:
        _fail(lineno, "expected exactly one '->' in %r" % text)
    return parts[0].strip(), parts[1].strip()


def _parse_header(fields):
    lineno, states_text = _one(fields, "states")
    states = [_token(part, lineno) for part in states_text.split()]
    lineno, initial_text = _one(fields, "initial")
    initial = _token(initial_text, lineno)
    lineno, alphabet = _one(fields, "alphabet")
    if not alphabet:
        _fail(lineno, "empty alphabet")
    return states, initial, alphabet


def _pair_key(text, lineno):
    parts = text.split(",")
    if len(parts) != 2:
        _fail(lineno, "expected 'q,a', got %r" % text)
    return _token(parts[0], lineno), _letter(parts[1], lineno)


def _guarded_key(text, lineno):
    parts = text.split(",")
    if len(parts) != 4:
        _fail(lineno, "expected 'q, r, a, p', got %r" % text)
    return (_token(parts[0], lineno), _guard_token(parts[1], lineno),
            _letter(parts[2], lineno), _guard_token(parts[3], lineno))


def _parse_table(fields, directive, read_key, read_target):
    """{key: target} from the `directive: key -> target` lines."""
    table = {}
    for lineno, rest in fields.get(directive, []):
        lhs, rhs = _split_arrow(rest, lineno)
        key = read_key(lhs, lineno)
        if key in table:
            _fail(lineno, "duplicate transition for %r" % (key,))
        table[key] = read_target(rhs, lineno)
    return table


def _parse_muller(fields):
    sets = []
    for lineno, rest in fields.get("muller", []):
        for chunk in rest.split():
            sets.append(_state_set(chunk, lineno))
    return sets


def _parse_assignments(body, variables, lineno):
    subst = {}
    for part in body.split(";"):
        if ":=" not in part:
            _fail(lineno, "expected 'X := rhs' in %r" % part.strip())
        lhs, rhs = part.split(":=", 1)
        name = lhs.strip()
        if name in subst:
            _fail(lineno, "variable %r assigned twice" % name)
        subst[name] = parse_rhs(rhs, variables)
    return subst


def _parse_output(fields, variables):
    out = {}
    for lineno, rest in fields.get("output", []):
        lhs, rhs = _split_arrow(rest, lineno)
        key = _state_set(lhs, lineno)
        if key in out:
            _fail(lineno, "duplicate output rule for %r" % (set(key),))
        seq = tuple(rhs.split())
        for name in seq:
            if name not in variables:
                _fail(lineno, "unknown output variable %r" % name)
        out[key] = seq
    return out


def _parse_automaton(kind, fields, sections):
    states, initial, alphabet = _parse_header(fields)
    delta = _parse_table(fields, "delta", _pair_key, _token)
    if kind.cls is Dfa:
        return Dfa(states, alphabet, initial, delta)
    return Dma(states, alphabet, initial, delta, _parse_muller(fields))


def _parse_streaming(kind, fields, sections):
    """An sst, or an sst-sf: the same lines with guarded keys."""
    states, initial, alphabet = _parse_header(fields)
    _, vars_text = _one(fields, "vars")
    variables = tuple(vars_text.split())
    read_key = _guarded_key if kind.sections else _pair_key
    delta = _parse_table(fields, "delta", read_key, _token)
    update = {}
    for lineno, rest in fields.get("update", []):
        head, colon, body = rest.partition(":")
        if not colon:
            _fail(lineno, "expected 'key: assignments', got %r" % rest)
        key = read_key(head, lineno)
        if key in update:
            _fail(lineno, "duplicate update for %r" % (key,))
        update[key] = _parse_assignments(body, variables, lineno)
    rules = _parse_output(fields, variables)
    if not kind.sections:
        return Sst(states, alphabet, initial, delta, variables, update, rules)
    return SstSf(states, alphabet, initial, delta, variables, update, rules,
                 lookahead=sections.get("lookahead"))


_MOVES = {"+1": RIGHT, "1": RIGHT, "0": STAY, "-1": LEFT}


def _move_target(text, lineno):
    """(state, output, move) from a 2wst line's q', "out", move."""
    first = text.find('"')
    last = text.rfind('"')
    if first < 0 or last == first:
        _fail(lineno, "expected a quoted output in %r" % text)
    state = _token(text[:first].rstrip().rstrip(","), lineno)
    move_text = text[last + 1:].lstrip().lstrip(",").strip()
    if move_text not in _MOVES:
        _fail(lineno, "move must be +1, 0 or -1, got %r" % move_text)
    return state, text[first + 1:last], _MOVES[move_text]


def _parse_2wst(kind, fields, sections):
    states, initial, alphabet = _parse_header(fields)
    return TwoWst(states, alphabet, initial,
                  _parse_table(fields, "trans", _guarded_key, _move_target),
                  _parse_muller(fields),
                  lookahead=sections.get("lookahead"),
                  lookbehind=sections.get("lookbehind"))


def _parse_fot(kind, fields, sections):
    lineno, alphabet = _one(fields, "alphabet")
    lineno, copies_text = _one(fields, "copies")
    if not copies_text.isdigit() or int(copies_text) < 1:
        _fail(lineno, "copies must be a positive count, got %r" % copies_text)
    copies = tuple(range(1, int(copies_text) + 1))
    dom_line, dom_text = _one(fields, "dom")
    labels = _formula_table(fields, "pos", "c,g", _letter)
    order = _formula_table(fields, "ord", "c,d", _copy_number)
    return Fot(alphabet, copies, _parse_formula_at(dom_text, dom_line), labels, order)


def _formula_table(fields, name, shape, second):
    """The `name: c,z: formula` lines as {(c, z): formula}, z read by second;
    a repeated key is an error at its line."""
    table = {}
    for lineno, rest in fields.get(name, []):
        head, _, body = rest.partition(":")
        parts = head.split(",")
        if len(parts) != 2 or not body:
            _fail(lineno, "expected '%s: formula', got %r" % (shape, rest))
        key = (_copy_number(parts[0], lineno), second(parts[1], lineno))
        if key in table:
            _fail(lineno, "duplicate %s line for %r" % (name, key))
        table[key] = _parse_formula_at(body, lineno)
    return table


def _parse_formula_at(text, lineno):
    try:
        return parse_formula(text)
    except ValueError as exc:
        _fail(lineno, "bad formula: %s" % exc)


def parse_machine_text(text):
    """Text in the format family -> validated machine of the header's kind."""
    main, section_lines = _split_sections(text)
    kind, fields = _block(main)
    for section, (lineno, _lines) in section_lines.items():
        if section not in kind.sections:
            _fail(lineno, "kind %r takes no look-around section %r"
                  % (kind.name, section))
    try:
        sections = {}
        for section, (_lineno, lines) in section_lines.items():
            sub_kind, sub = _block(lines)
            want = "dma" if section == "lookahead" else "dfa"
            if sub_kind.name != want:
                _fail(lines[0][0], "%s section must embed kind %r" % (section, want))
            sections[section] = sub_kind.parse(sub_kind, sub, {})
        return kind.parse(kind, fields, sections)
    except FormatError:
        raise
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def parse_machine(path):
    with open(path, encoding="utf-8") as handle:
        return parse_machine_text(handle.read())


def parse_corpus_text(text):
    words = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        try:
            words.append(parse_word(line))
        except ValueError as exc:
            _fail(lineno, str(exc))
    return words


def parse_corpus(path):
    with open(path, encoding="utf-8") as handle:
        return parse_corpus_text(handle.read())


def _is_token(name):
    return (isinstance(name, int) and name >= 0) or (
        isinstance(name, str) and bool(_TOKEN.match(name))
    )


def _token_map(names, prefix):
    """Identity for printable names, else prefix0, prefix1, ... by position."""
    as_text = [str(n) for n in names]
    if all(map(_is_token, names)) and len(set(as_text)) == len(as_text):
        return {n: n for n in names}
    return {n: "%s%d" % (prefix, i) for i, n in enumerate(names)}


def printable_machine(m):
    """The same machine with states/variables renamed to bare tokens.

    Machines built by hand already carry token names and come back
    unchanged (the identity renaming preserves every field); conversion and
    elimination results get s0, s1, ... states in state order.  The embedded
    look-around automata are renamed the same way, and so are the guards of
    the keys (state, behind, letter, ahead) that name their states.
    """
    if not isinstance(m, (Dma, Dfa, Sst, SstSf, TwoWst)):
        return m
    ren = _token_map(m.states, "s")
    states = [ren[q] for q in m.states]
    la, lb = getattr(m, "lookahead", None), getattr(m, "lookbehind", None)
    ahead, behind = ({None: None, **(_token_map(a.states, "s") if a else {})}
                     for a in (la, lb))

    def key(k):
        if len(k) == 2:
            return (ren[k[0]], k[1])
        return (ren[k[0]], behind[k[1]], k[2], ahead[k[3]])

    if isinstance(m, TwoWst):
        return TwoWst(
            states, m.alphabet, ren[m.initial],
            {key(k): (ren[q2], out, move) for k, (q2, out, move) in m.delta.items()},
            [frozenset(ren[q] for q in P) for P in m.muller_sets],
            lookahead=printable_machine(la), lookbehind=printable_machine(lb),
        )
    delta = {key(k): ren[q2] for k, q2 in m.delta.items()}
    if isinstance(m, Dfa):
        return Dfa(states, m.alphabet, ren[m.initial], delta)
    if isinstance(m, Dma):
        return Dma(states, m.alphabet, ren[m.initial], delta,
                   [frozenset(ren[q] for q in P) for P in m.muller_sets])
    var = _token_map(m.variables, "v")
    guarded = {} if isinstance(m, Sst) else {"lookahead": printable_machine(la)}
    return type(m)(
        states, m.alphabet, ren[m.initial], delta, [var[x] for x in m.variables],
        {key(k): {var[x]: tuple((tag, var[v] if tag == "var" else v) for tag, v in rhs)
                  for x, rhs in subst.items()}
         for k, subst in m.update.items()},
        {frozenset(ren[q] for q in P): tuple(var[x] for x in seq)
         for P, seq in m.F.items()},
        **guarded,
    )


def _fmt_set(P, state_order):
    members = sorted(P, key=lambda q: state_order[q])
    return "{%s}" % ",".join(str(q) for q in members)


def _fmt_rhs_checked(rhs, variables):
    text = format_rhs(rhs)
    if parse_rhs(text, variables) != tuple(rhs):
        raise ValueError(
            "right-hand side %r is ambiguous in the text format" % text
        )
    return text


def _fmt_assignments(subst, variables):
    parts = []
    for x in variables:
        rhs = subst.get(x, (("var", x),))
        if rhs == (("var", x),):
            continue
        parts.append("%s := %s" % (x, _fmt_rhs_checked(rhs, variables)))
    return "; ".join(parts)


def _header_lines(kind, m):
    _check_letters(m.alphabet)
    return [
        "kind: %s" % kind.name,
        "states: %s" % " ".join(str(q) for q in m.states),
        "initial: %s" % m.initial,
        "alphabet: %s" % "".join(m.alphabet),
    ]


def _check_letters(alphabet):
    for a in alphabet:
        if len(a) != 1 or a in ',;:"{}' or a.isspace():
            raise ValueError("letter %r cannot be printed in the text format" % a)


def _guard(r):
    return "_" if r is None else str(r)


def _fmt_key(key):
    """A transition key as the text format writes it: q,a or q, r, a, p."""
    if len(key) == 2:
        return "%s,%s" % key
    q, r, a, p = key
    return "%s, %s, %s, %s" % (q, _guard(r), a, _guard(p))


def _sorted_keys(m):
    """m's transition keys by state, then letter, then the two guards."""
    state_order = {q: i for i, q in enumerate(m.states)}
    letter_order = {a: i for i, a in enumerate(m.alphabet)}
    letter_order[MARK] = len(letter_order)

    def order(key):
        if len(key) == 2:
            return state_order[key[0]], letter_order[key[1]]
        q, r, a, p = key
        return state_order[q], letter_order[a], _guard(r), _guard(p)

    return sorted(m.delta, key=order)


def _muller_line(m):
    order = {q: i for i, q in enumerate(m.states)}
    return "muller: %s" % " ".join(_fmt_set(P, order) for P in m.muller_sets)


def _print_automaton(kind, m):
    lines = _header_lines(kind, m)
    for key in _sorted_keys(m):
        lines.append("delta: %s -> %s" % (_fmt_key(key), m.delta[key]))
    if kind.cls is Dma:
        lines.append(_muller_line(m))
    return lines


def _print_streaming(kind, m):
    """An sst, or an sst-sf: the same lines with guarded keys."""
    order = {q: i for i, q in enumerate(m.states)}
    lines = _header_lines(kind, m)
    lines.append("vars: %s" % " ".join(m.variables))
    keys = _sorted_keys(m)
    for key in keys:
        lines.append("delta: %s -> %s" % (_fmt_key(key), m.delta[key]))
    for key in keys:
        body = _fmt_assignments(m.update[key], m.variables)
        if body:
            lines.append("update: %s: %s" % (_fmt_key(key), body))
    for P in m.muller_sets:
        lines.append(
            "output: %s -> %s" % (_fmt_set(P, order), " ".join(m.F[P]))
        )
    if kind.sections:
        lines.extend(_section_lines(m))
    return lines


def _section_lines(m):
    lines = []
    if m.lookbehind is not None:
        lines.append("lookbehind:")
        lines.extend(_print_automaton(KINDS["dfa"], m.lookbehind))
    if m.lookahead is not None:
        lines.append("lookahead:")
        lines.extend(_print_automaton(KINDS["dma"], m.lookahead))
    return lines


_MOVE_TEXT = {RIGHT: "+1", STAY: "0", LEFT: "-1"}


def _print_2wst(kind, m):
    lines = _header_lines(kind, m)
    for key in _sorted_keys(m):
        q2, out, move = m.delta[key]
        if '"' in out:
            raise ValueError("output %r cannot be printed in the text format" % out)
        lines.append(
            'trans: %s -> %s, "%s", %s' % (_fmt_key(key), q2, out, _MOVE_TEXT[move])
        )
    lines.append(_muller_line(m))
    lines.extend(_section_lines(m))
    return lines


def _print_fot(kind, m):
    _check_letters(m.alphabet)
    if m.copies != tuple(range(1, len(m.copies) + 1)):
        raise ValueError("only copies numbered 1..n can be printed")
    letter_order = {a: i for i, a in enumerate(m.alphabet)}
    lines = [
        "kind: %s" % kind.name,
        "alphabet: %s" % "".join(m.alphabet),
        "copies: %d" % len(m.copies),
        "dom: %s" % format_formula(m.domain),
    ]
    for c, a in sorted(m.labels, key=lambda k: (k[0], letter_order[k[1]])):
        lines.append("pos: %d,%s: %s" % (c, a, format_formula(m.labels[(c, a)])))
    for c, d in sorted(m.order):
        lines.append("ord: %d,%d: %s" % (c, d, format_formula(m.order[(c, d)])))
    return lines


Kind = namedtuple("Kind", ["name", "cls", "parse", "print", "sections", "single", "repeated"])
Kind.__doc__ = """One machine kind of the text format.

parse(kind, fields, sections) builds the machine from its collected lines
and embedded look-around automata; print(kind, machine) gives its lines.
sections lists the look-around sections the kind may end with; the kinds
that take any are guarded, and key transitions on (state, behind, letter,
ahead).  single lists the directives of one line each, repeated those
that may take many; the kind takes no other."""

_HEADER = ("states", "initial", "alphabet")
KINDS = {kind.name: kind for kind in (
    Kind("dma", Dma, _parse_automaton, _print_automaton, (),
         _HEADER, ("delta", "muller")),
    Kind("dfa", Dfa, _parse_automaton, _print_automaton, (), _HEADER, ("delta",)),
    Kind("sst", Sst, _parse_streaming, _print_streaming, (),
         _HEADER + ("vars",), ("delta", "update", "output")),
    Kind("sst-sf", SstSf, _parse_streaming, _print_streaming, ("lookahead",),
         _HEADER + ("vars",), ("delta", "update", "output")),
    Kind("2wst", TwoWst, _parse_2wst, _print_2wst, ("lookahead", "lookbehind"),
         _HEADER, ("trans", "muller")),
    Kind("fot", Fot, _parse_fot, _print_fot, (),
         ("alphabet", "copies", "dom"), ("pos", "ord")),
)}
_KIND_OF_CLASS = {kind.cls: kind for kind in KINDS.values()}


def kind_name(m):
    """The `kind:` name of a machine; TypeError for an object of no kind."""
    return _kind_of(m).name


def _kind_of(m):
    if type(m) not in _KIND_OF_CLASS:
        raise TypeError("no text format for %s" % type(m).__name__)
    return _KIND_OF_CLASS[type(m)]


def print_machine(m):
    """Deterministic text for a machine; parse_machine_text inverts it.

    Structured states and variables are renamed via printable_machine
    first, so the round trip reproduces the renamed machine.
    """
    m = printable_machine(m)
    kind = _kind_of(m)
    return "\n".join(kind.print(kind, m)) + "\n"
