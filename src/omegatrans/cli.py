"""Command-line front end: omega-trans <verb> ...

Verbs: run, compare, check-aperiodic, check-1bounded, monoid, behavior,
graph, compile, eliminate-la.  Machine files use the `kind:`-headed text
format from formats.py; words are written as PREFIX(PERIOD)^w.  main
builds the parser on its first call and reuses it; build_parser imports
argparse, so importing this module loads neither argparse nor numpy.

Exit codes: 0 success (or all-equal for compare), 1 a property failed, a
word was rejected, or a mismatch was found, 2 usage or parse errors (a file
of a kind the verb cannot take, a letter outside the alphabet included), 3 a
resource limit was hit: a monoid, a construction or the 1-boundedness
search grew past its --cap (CapExceeded).  Every runner is exact and has
no limit of its own, the first-order runner included.
"""

import random
import sys

from .constructions import (
    compare_outputs,
    eliminate_lookaround,
    run_model,
    twowst_to_sst_sf,
)
from .formats import (
    FormatError,
    kind_name,
    parse_corpus,
    parse_machine,
    print_machine,
)
from .muller import CapExceeded, dma_monoid, is_aperiodic
from .outputgraph import build_output_graph
from .sst import (
    NotInDomain,
    flow_matrix_direct,
    is_1_bounded,
    is_aperiodic_sst,
    sst_monoid,
)
from .twowst import anchored_behavior, is_aperiodic_2wst, twowst_monoid
from .words import UPWord, format_word, parse_word, random_upword


def emit_dot(g, path):
    """Write an output graph's DOT rendering to path."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(g.to_dot())


# the kinds run_model has a runner for
_RUNNABLE = ("sst", "sst-sf", "2wst", "fot")
_APERIODIC = {"dma": is_aperiodic, "sst": is_aperiodic_sst, "2wst": is_aperiodic_2wst}
_MONOID = {"dma": dma_monoid, "sst": sst_monoid, "2wst": twowst_monoid}


def _load(path, want=None):
    """The machine in path; FormatError unless its kind is one of want's names."""
    m = parse_machine(path)
    if want is not None and kind_name(m) not in want:
        raise FormatError(
            "%s is a %s file; this verb needs %s" % (path, kind_name(m), "/".join(want))
        )
    return m


def _write_or_print(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _cmd_run(args):
    m = _load(args.machine, want=_RUNNABLE)
    w = parse_word(args.word)
    try:
        print(run_model(m, w, args.k))
    except NotInDomain as exc:
        print(str(exc))
        return 1
    return 0


def _sample_corpus(m, count, seed):
    rng = random.Random(seed)
    alphabet = "".join(m.alphabet)
    words = {}
    attempts = 60 * count
    while len(words) < count and attempts > 0:
        attempts -= 1
        w = random_upword(rng, alphabet)
        try:
            run_model(m, w, 1)
        except NotInDomain:
            continue
        words[w] = None
    return list(words)


def _cmd_compare(args):
    m1 = _load(args.machine1, want=_RUNNABLE)
    m2 = _load(args.machine2, want=_RUNNABLE)
    if args.corpus is not None:
        corpus = parse_corpus(args.corpus)
    elif args.sample < 1:
        raise ValueError("--sample must be >= 1, got %d" % args.sample)
    else:
        corpus = _sample_corpus(m1, args.sample, args.seed)
    rows = compare_outputs(m1, m2, corpus, k=args.k)
    lines = ["word\tverdict\tdivergence-index"]
    for w, verdict, index in rows:
        lines.append(
            "%s\t%s\t%s" % (format_word(w), verdict, "-" if index is None else index)
        )
    report = "\n".join(lines) + "\n"
    counts = {"equal": 0, "both-reject": 0, "mismatch": 0}
    for _, verdict, _ in rows:
        counts[verdict] += 1
    if args.report is not None:
        _write_or_print(report, args.report)
        print(
            "words: %d equal: %d both-reject: %d mismatch: %d"
            % (len(rows), counts["equal"], counts["both-reject"], counts["mismatch"])
        )
    else:
        sys.stdout.write(report)
    return 1 if counts["mismatch"] else 0


def _cap_kwargs(args):
    return {} if args.cap is None else {"cap": args.cap}


def _cmd_check_aperiodic(args):
    m = _load(args.machine, want=_APERIODIC)
    verdict, witness = _APERIODIC[kind_name(m)](m, **_cap_kwargs(args))
    if verdict:
        print("aperiodic")
        return 0
    print("not aperiodic (witness: %s)" % witness)
    return 1


def _cmd_check_1bounded(args):
    m = _load(args.machine, want=("sst",))
    verdict, witness = is_1_bounded(m, **_cap_kwargs(args))
    if verdict:
        print("1-bounded")
        return 0
    print("not 1-bounded (witness: %s; %s)" % (witness, _count_of_two(m, witness)))
    return 1


def _count_of_two(t, word):
    """The first flow entry of word, in state and variable order, whose count is 2."""
    rows = flow_matrix_direct(t, word).rows
    return next(
        "%s -> %s from state %s reaches 2" % (x, y, p)
        for (p, x), row in rows.items()
        for (_, y), (count, _) in row.items()
        if count >= 2
    )


def _cmd_monoid(args):
    m = _load(args.machine, want=_MONOID)
    mon = _MONOID[kind_name(m)](m, **_cap_kwargs(args))
    print("size: %d" % len(mon))
    for element, word in mon.items():
        if kind_name(m) == "2wst":
            print(word or "ε")
        else:
            print("%s: %r" % (word or "ε", element))
    return 0


def _cmd_behavior(args):
    t = _load(args.machine, want=("2wst",))
    if args.continuation is not None:
        continuation = parse_word(args.continuation)
    else:
        continuation = UPWord("", t.alphabet[0])
    for a in args.factor + continuation.prefix + continuation.period:
        if a not in t.alphabet:
            raise FormatError("letter %r is not in the machine's alphabet" % a)
    enter_left, enter_right = anchored_behavior(t, args.factor, continuation)
    order = {q: i for i, q in enumerate(t.states)}
    for name, table in (("enter-left", enter_left), ("enter-right", enter_right)):
        print("%s:" % name)
        for (p, q) in sorted(table, key=lambda pq: (order[pq[0]], order[pq[1]])):
            print("  %s -> %s %r" % (p, q, table[(p, q)]))
    return 0


def _cmd_graph(args):
    m = _load(args.machine, want=("sst",))
    w = parse_word(args.word)
    try:
        g = build_output_graph(m, w, args.horizon)
    except NotInDomain as exc:
        print(str(exc))
        return 1
    if args.dot is not None:
        emit_dot(g, args.dot)
    else:
        sys.stdout.write(g.to_dot())
    return 0


def _cmd_compile(args):
    t = _load(args.machine, want=("2wst",))
    s = twowst_to_sst_sf(t, **_cap_kwargs(args))
    text = print_machine(s)
    _write_or_print(text, args.output)
    if args.output is not None:
        print("wrote %s (%d states)" % (args.output, len(s.states)))
    return 0


def _cmd_eliminate(args):
    s = _load(args.machine, want=("sst-sf",))
    elim = eliminate_lookaround(s, **_cap_kwargs(args))
    text = print_machine(elim)
    _write_or_print(text, args.output)
    if args.output is not None:
        print("wrote %s (%d states)" % (args.output, len(elim.states)))
    return 0


def build_parser():
    """A fresh parser of the command line."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="omega-trans",
        description="Run, compare, check and compile transducers on "
                    "ultimately periodic infinite words.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("run", help="run a machine on a word, print k letters")
    p.add_argument("machine")
    p.add_argument("word", help="a word like ab#(a)^w")
    p.add_argument("-k", type=int, default=40, help="output prefix length")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("compare", help="compare two machines word by word")
    p.add_argument("machine1")
    p.add_argument("machine2")
    p.add_argument("--corpus", help="file with one word per line")
    p.add_argument("--sample", type=int, default=20,
                   help="without --corpus: sample this many accepted words")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("-k", type=int, default=40, help="compared prefix length")
    p.add_argument("--report", help="write the TSV here instead of stdout")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("check-aperiodic", help="decide counter-freeness")
    p.add_argument("machine")
    p.add_argument("--cap", type=int, help="cap on monoid elements generated before a witness")
    p.set_defaults(func=_cmd_check_aperiodic)

    p = sub.add_parser("check-1bounded", help="decide flow boundedness")
    p.add_argument("machine")
    p.add_argument("--cap", type=int, help="cap on the sets of copy-path pairs searched")
    p.set_defaults(func=_cmd_check_1bounded)

    p = sub.add_parser("monoid", help="print the generated transition monoid")
    p.add_argument("machine")
    p.add_argument("--cap", type=int, help="monoid element cap")
    p.set_defaults(func=_cmd_monoid)

    p = sub.add_parser("behavior", help="crossing behavior of a finite factor")
    p.add_argument("machine")
    p.add_argument("factor", help="finite word placed after the end marker")
    p.add_argument("--continuation", help="rest of the input, default (a)^w "
                                          "over the first alphabet letter")
    p.set_defaults(func=_cmd_behavior)

    p = sub.add_parser("graph", help="output graph of a streaming run as DOT")
    p.add_argument("machine")
    p.add_argument("word")
    p.add_argument("--horizon", type=int, default=12, help="columns to build")
    p.add_argument("--dot", help="write DOT here instead of stdout")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("compile", help="translate between machine kinds")
    p.add_argument("pipeline", choices=["2wst-to-sst"])
    p.add_argument("machine")
    p.add_argument("-o", "--output", help="write the result here")
    p.add_argument("--cap", type=int, help="state cap for the construction")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("eliminate-la", help="replace look-around by subsets")
    p.add_argument("machine")
    p.add_argument("-o", "--output", help="write the result here")
    p.add_argument("--cap", type=int,
                   help="cap on the reachable configurations and on the subset states")
    p.set_defaults(func=_cmd_eliminate)

    return parser


_parser = None


def main(argv=None):
    global _parser
    _parser = _parser or build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
