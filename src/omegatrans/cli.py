"""Command-line front end: omega-trans <verb> ...

Verbs: run, compare, check-aperiodic, check-1bounded, monoid, behavior,
graph, compile, eliminate-la.  Machine files use the `kind:`-headed text
format from formats.py; words are written as PREFIX(PERIOD)^w.

Exit codes: 0 success (or all-equal for compare), 1 a property failed, a
word was rejected, or a mismatch was found, 2 usage or parse errors, 3 a
resource limit was hit: a monoid or a construction grew past its --cap
(CapExceeded).  Every runner is exact and has no limit of its own, the
first-order runner included.
"""

import argparse
import random
import sys

from .constructions import (
    SstSf,
    compare_outputs,
    eliminate_lookaround,
    run_model,
    twowst_to_sst_sf,
)
from .fixtures import random_upword
from .formats import (
    FormatError,
    parse_corpus,
    parse_machine,
    print_machine,
)
from .fot import Fot
from .muller import CapExceeded, Dma, dma_monoid, is_aperiodic
from .outputgraph import build_output_graph
from .sst import NotInDomain, Sst, is_1_bounded, is_aperiodic_sst, sst_monoid
from .twowst import TwoWst, anchored_behavior, is_aperiodic_2wst, twowst_monoid
from .words import UPWord, format_word, parse_word


def emit_dot(g, path):
    """Write an output graph's DOT rendering to path."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(g.to_dot())


def _load(path, want=None, what="machine"):
    m = parse_machine(path)
    if want is not None and not isinstance(m, want):
        names = want.__name__ if isinstance(want, type) else "/".join(
            w.__name__ for w in want
        )
        raise FormatError(
            "%s is a %s file; this verb needs %s" % (path, _kind_name(m), names)
        )
    return m


def _kind_name(m):
    return {
        Dma: "dma", Sst: "sst", TwoWst: "2wst", Fot: "fot", SstSf: "sst-sf"
    }.get(type(m), type(m).__name__)


def _write_or_print(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _cmd_run(args):
    m = _load(args.machine)
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
    words = []
    attempts = 60 * count
    while len(words) < count and attempts > 0:
        attempts -= 1
        w = random_upword(rng, alphabet)
        try:
            run_model(m, w, 1)
        except NotInDomain:
            continue
        if all(w != seen for seen in words):
            words.append(w)
    return words


def _cmd_compare(args):
    m1 = _load(args.machine1)
    m2 = _load(args.machine2)
    if args.corpus is not None:
        corpus = parse_corpus(args.corpus)
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
    m = _load(args.machine, want=(Dma, Sst, TwoWst))
    if isinstance(m, Dma):
        verdict, witness = is_aperiodic(m, **_cap_kwargs(args))
    elif isinstance(m, Sst):
        verdict, witness = is_aperiodic_sst(m, **_cap_kwargs(args))
    else:
        verdict, witness = is_aperiodic_2wst(m, **_cap_kwargs(args))
    if verdict:
        print("aperiodic")
        return 0
    print("not aperiodic (witness: %s)" % witness)
    return 1


def _cmd_check_1bounded(args):
    m = _load(args.machine, want=Sst)
    verdict, witness = is_1_bounded(m, **_cap_kwargs(args))
    if verdict:
        print("1-bounded")
        return 0
    print("not 1-bounded (witness: %s)" % witness)
    return 1


def _cmd_monoid(args):
    m = _load(args.machine, want=(Dma, Sst, TwoWst))
    if isinstance(m, Dma):
        mon = dma_monoid(m, **_cap_kwargs(args))
    elif isinstance(m, Sst):
        mon = sst_monoid(m, **_cap_kwargs(args))
    else:
        mon = twowst_monoid(m, **_cap_kwargs(args))
    print("size: %d" % len(mon.elements))
    for element, word in sorted(mon.elements.items(), key=lambda kv: (len(kv[1]), kv[1])):
        if isinstance(m, TwoWst):
            print(word or "ε")
        else:
            print("%s: %r" % (word or "ε", element))
    return 0


def _cmd_behavior(args):
    t = _load(args.machine, want=TwoWst)
    for a in args.factor:
        if a not in t.alphabet:
            raise FormatError("letter %r is not in the machine's alphabet" % a)
    if args.continuation is not None:
        continuation = parse_word(args.continuation)
    else:
        continuation = UPWord("", t.alphabet[0])
    enter_left, enter_right = anchored_behavior(t, args.factor, continuation)
    order = {q: i for i, q in enumerate(t.states)}
    for name, table in (("enter-left", enter_left), ("enter-right", enter_right)):
        print("%s:" % name)
        for (p, q) in sorted(table, key=lambda pq: (order[pq[0]], order[pq[1]])):
            print("  %s -> %s %r" % (p, q, table[(p, q)]))
    return 0


def _cmd_graph(args):
    m = _load(args.machine, want=Sst)
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
    t = _load(args.machine, want=TwoWst)
    s = twowst_to_sst_sf(t, **_cap_kwargs(args))
    text = print_machine(s)
    _write_or_print(text, args.output)
    if args.output is not None:
        print("wrote %s (%d states)" % (args.output, len(s.states)))
    return 0


def _cmd_eliminate(args):
    s = _load(args.machine, want=SstSf)
    elim = eliminate_lookaround(s, **_cap_kwargs(args))
    text = print_machine(elim)
    _write_or_print(text, args.output)
    if args.output is not None:
        print("wrote %s (%d states)" % (args.output, len(elim.states)))
    return 0


def build_parser():
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
    p.add_argument("--cap", type=int, help="monoid element cap")
    p.set_defaults(func=_cmd_check_aperiodic)

    p = sub.add_parser("check-1bounded", help="decide flow boundedness")
    p.add_argument("machine")
    p.add_argument("--cap", type=int, help="monoid element cap")
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
    p.add_argument("--cap", type=int, help="configuration cap")
    p.set_defaults(func=_cmd_eliminate)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except FormatError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
