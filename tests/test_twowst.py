import pathlib
import random

import pytest

from omegatrans.fixtures import (
    alternating_copier_twowst,
    mirror_corpus,
    mirror_lookahead_dma,
    mirror_sst,
    mirror_twowst,
    plain_copier_twowst,
    random_lookahead_twowst,
    random_twowst,
    random_upword,
)
from omegatrans.formats import parse_corpus, parse_machine
from omegatrans.sst import NotInDomain, run_output
from omegatrans.twowst import (
    LEFT,
    MARK,
    RIGHT,
    STAY,
    TwoWst,
    _WordContext,
    anchored_behavior,
    element_of_word,
    identity_element,
    is_aperiodic_2wst,
    realizable_contexts,
    reaches,
    run_2wst,
    twowst_monoid,
)
from omegatrans.words import UPWord

MACHINES = pathlib.Path(__file__).resolve().parent.parent / "machines"


def test_lookahead_classifier():
    a = mirror_lookahead_dma()
    assert a.context(UPWord("ab", "ba")) == {"n", "m"}
    assert a.context(UPWord("ab#", "a")) == {"y", "m"}
    assert a.context(UPWord("", "a#")) == {"y", "m"}
    assert a.context(UPWord("", "a")) == {"n", "m"}
    assert a.accepts(UPWord("", "a#"))
    assert not a.accepts(UPWord("", "a"))


def test_run_mirror_frozen_outputs():
    t = mirror_twowst()
    assert run_2wst(t, UPWord("ab#", "a"), 6) == "baab#a"
    assert run_2wst(t, UPWord("ab#", "a"), 20) == "baab#" + "a" * 15
    assert run_2wst(t, UPWord("abbb#ba#", "ab"), 14) == "bbbaabbb#abba#"


def test_run_mirror_copies_separator_free_words():
    t = mirror_twowst()
    assert run_2wst(t, UPWord("ab", "ba"), 8) == "abbababa"


def test_run_mirror_rejects_infinitely_many_separators():
    t = mirror_twowst()
    with pytest.raises(NotInDomain, match="not accepting"):
        run_2wst(t, UPWord("", "a#"), 5)


def test_run_agrees_with_streaming_version():
    tw = mirror_twowst()
    st = mirror_sst()
    words = [
        UPWord("ab#", "a"),
        UPWord("abbb#ba#", "ab"),
        UPWord("ab", "ba"),
        UPWord("#", "b"),
        UPWord("ba#ab#a#", "ba"),
    ]
    for w in words:
        assert run_2wst(tw, w, 40) == run_output(st, w, 40), w


def test_run_stuck_when_treading_in_place():
    t = TwoWst("s", "ab", "s", {("s", None, "a", None): ("s", "", STAY)}, [{"s"}])
    with pytest.raises(NotInDomain, match="treads in place"):
        run_2wst(t, UPWord("", "a"), 3)
    with pytest.raises(NotInDomain, match="no transition"):
        run_2wst(t, UPWord("", "b"), 3)


def test_run_pads_finite_output():
    t = TwoWst("s", "a", "s", {("s", None, "a", None): ("s", "", RIGHT)}, [{"s"}])
    assert run_2wst(t, UPWord("", "a"), 4) == "⊥⊥⊥⊥"


def test_lookbehind_states_fold_onto_the_cycle_of_their_lasso():
    """b_state(pos) is the lookbehind run on the first pos - 1 letters, also
    past the stored lasso, where it is read by folding."""
    t = parse_machine(MACHINES / "behind.2wst")
    rng = random.Random(5)
    words = [w for w in parse_corpus(MACHINES / "corpus.txt") if "#" not in str(w)]
    words += [random_upword(rng, "ab", 4, 3) for _ in range(30)]
    for w in words:
        ctx = _WordContext(t, w)
        assert ctx.b_state(0) == t.lookbehind.initial
        for pos in range(1, ctx.entry_pos + 3 * ctx.cycle_len + 1):
            assert ctx.b_state(pos) == t.lookbehind.run(w.prefix_of(pos - 1)), (w, pos)


def test_lookahead_contexts_fold_onto_the_cycle_of_their_lasso():
    """ahead(pos) is the context of the suffix after pos, also past the
    stored contexts, where it is read by folding."""
    t = parse_machine(MACHINES / "f1.2wst")
    for w in parse_corpus(MACHINES / "corpus.txt"):
        ctx = _WordContext(t, w)
        for pos in range(ctx.entry_pos + 3 * ctx.cycle_len + 1):
            assert ctx.ahead(pos) == t.lookahead.context(w.suffix(pos)), (w, pos)


def test_reaches_mirror():
    t = mirror_twowst()
    w = UPWord("ab#", "a")
    assert reaches(t, w, "t", 1, "q", 1)
    assert reaches(t, w, "t", 1, "t", 6)
    assert reaches(t, w, "t", 1, "t", 100)
    assert not reaches(t, w, "t", 1, "p", 5)
    assert not reaches(t, w, "q", 1, "p", 1)


def _walk_bound(t, word, pos):
    """The proved bound on the moves of a head walk from pos on word."""
    ctx = _WordContext(t, word)
    n = len(t.states)
    return n * (max(pos, ctx.entry_pos) + n * ctx.cycle_len + 2)


def _accepts_from(a, p, word):
    """Muller acceptance of word from state p of a, by the run's own lasso:
    past the prefix, the first (state, phase) pair that repeats closes the
    cycle the run stays on."""
    for letter in word.prefix:
        p = a.step(p, letter)
    period = word.period
    visits, first, i = [], {}, 0
    while (p, i % len(period)) not in first:
        first[(p, i % len(period))] = i
        visits.append(p)
        p = a.step(p, period[i % len(period)])
        i += 1
    return frozenset(visits[first[(p, i % len(period))]:]) in a.muller_sets


def _guarded_rows(t, word):
    """The row of t firing in state q at pos, as a function of (q, pos):
    each look-ahead guard is decided by _accepts_from on the suffix."""
    by_qa = {}
    for (q, _r, a, p), value in t.delta.items():
        by_qa.setdefault((q, a), []).append((p, value))
    verdicts = {}

    def holds(p, pos):
        key = (p, word.suffix(pos))
        if key not in verdicts:
            verdicts[key] = _accepts_from(t.lookahead, p, key[1])
        return verdicts[key]

    def row(q, pos):
        rows = [value for p, value in by_qa.get((q, MARK if pos == 0 else word.letter_at(pos)), ())
                if p is None or holds(p, pos)]
        assert len(rows) <= 1
        return rows[0] if rows else None

    return row


def _step_by_step(t, word, q, pos, steps):
    """Plain simulation of a machine's head, without look-behind, for at
    most steps moves: (configurations, outputs, why it stopped or None)."""
    row_at = _guarded_rows(t, word)
    configs = [(q, pos)]
    seen = {(q, pos)}
    outs = []
    for _ in range(steps):
        row = row_at(q, pos)
        if row is None:
            return configs, outs, (
                "stuck: no transition applies in state %r at position %d" % (q, pos))
        q, out, move = row
        pos += move
        if pos < 0:
            return configs, outs, "stuck: the head fell off the left end"
        if (q, pos) in seen:
            return configs, outs, (
                "stuck: the head treads in place in state %r at position %d" % (q, pos))
        seen.add((q, pos))
        configs.append((q, pos))
        outs.append(out)
    return configs, outs, None


def _draws(seed):
    """50 unguarded and 50 look-ahead machines, each with a word."""
    for draw in (random_twowst, random_lookahead_twowst):
        rng = random.Random(seed)
        for _ in range(50):
            yield draw(rng), random_upword(rng, "ab", 3, 3)


@pytest.mark.parametrize("seed", range(6))
def test_walks_agree_with_step_by_step_simulation(seed):
    """run_2wst and reaches on random machines, unguarded and with
    look-ahead, against a plain simulation run to the proved bound plus
    enough loops to pass the target.  A run that has not ended by the bound
    travels: it is in its loop from then on, each loop takes at most the
    bound and moves at least one cell right, and it outputs a letter unless
    the output stays finite."""
    k, y_max = 8, 11
    for t, w in _draws(seed):
        bound = _walk_bound(t, w, 1)
        configs, outs, why = _step_by_step(t, w, t.initial, 1, bound * (k + 2))
        if why is not None:
            assert len(configs) <= bound
            with pytest.raises(NotInDomain) as err:
                run_2wst(t, w, k)
            assert str(err.value) == why
        else:
            forever = frozenset(s for s, _ in configs[bound:])
            if forever in t.muller_sets:
                assert run_2wst(t, w, k) == "".join(outs)[:k].ljust(k, "⊥")
            else:
                with pytest.raises(NotInDomain, match="not accepting") as err:
                    run_2wst(t, w, k)
                assert err.value.infinity_set == forever
        for q in t.states:
            for x in range(5):
                configs, _, _ = _step_by_step(t, w, q, x, _walk_bound(t, w, x) * (y_max + 2))
                for q2 in t.states:
                    for y in range(y_max + 1):
                        assert reaches(t, w, q, x, q2, y) == ((q2, y) in configs)


def test_walk_moves_stay_within_the_proved_bound(monkeypatch):
    moves = []
    transition = _WordContext.transition

    def counted(self, q, pos):
        moves.append(pos)
        return transition(self, q, pos)

    monkeypatch.setattr(_WordContext, "transition", counted)
    for t in (mirror_twowst(), alternating_copier_twowst(), plain_copier_twowst()):
        for w in mirror_corpus():
            moves.clear()
            try:
                run_2wst(t, w, 40)
            except NotInDomain:
                pass
            assert 0 < len(moves) <= _walk_bound(t, w, 1), w


def test_anchored_behavior_of_first_block():
    t = mirror_twowst()
    blr, brr = anchored_behavior(t, "ab#", UPWord("", "a"))
    assert blr == {
        ("t", "t"): (0,),
        ("p", "t"): (0,),
        ("q", "t"): (0,),
    }
    assert brr == {
        ("t", "t"): (0,),
        ("p", "q"): (0,),
        ("q", "t"): (0,),
    }


def test_anchored_behavior_on_tail_context():
    # in the separator-free context t copies straight through (staying inside
    # the accepting singleton, hence coordinate 1); p walks to the end marker,
    # turns around as q and exits verbatim
    t = mirror_twowst()
    expected = {
        ("t", "t"): (1,),
        ("p", "q"): (0,),
        ("q", "q"): (0,),
    }
    blr, brr = anchored_behavior(t, "ab", UPWord("", "ab"))
    assert blr == expected
    assert brr == expected


def test_anchored_behavior_drops_runs_that_fall_off_the_left_end():
    # s walks left over the end marker and off the word; r copies rightward
    delta = {
        ("s", None, "a", None): ("s", "", LEFT),
        ("s", None, MARK, None): ("s", "", LEFT),
        ("r", None, "a", None): ("r", "a", RIGHT),
    }
    t = TwoWst("sr", "a", "s", delta, [{"r"}])
    expected = {("r", "r"): (1,)}
    assert anchored_behavior(t, "aa", UPWord("", "a")) == (expected, expected)


def test_realizable_contexts_of_lookahead():
    a = mirror_lookahead_dma()
    cs = realizable_contexts(a)
    assert frozenset("ym") in cs  # a separator-bearing continuation
    assert frozenset("nm") in cs  # a separator-free continuation
    for c in cs:
        assert "m" in c and "d" not in c


def test_element_composition_matches_direct():
    rng = random.Random(5)
    for t in (mirror_twowst(), alternating_copier_twowst(), plain_copier_twowst()):
        al = "".join(t.alphabet)
        for _ in range(25):
            w1 = "".join(rng.choice(al) for _ in range(rng.randint(0, 4)))
            w2 = "".join(rng.choice(al) for _ in range(rng.randint(0, 4)))
            direct = element_of_word(t, w1 + w2)
            assert element_of_word(t, w1) * element_of_word(t, w2) == direct, (w1, w2)


def test_identity_element_laws():
    for t in (mirror_twowst(), plain_copier_twowst()):
        i = identity_element(t)
        x = element_of_word(t, t.alphabet[0])
        assert i * x == x
        assert x * i == x
        assert i * i == i


def test_mirror_machine_is_aperiodic():
    # computed once: the behavior monoid has 9 elements, all stabilizing
    t = mirror_twowst()
    assert len(twowst_monoid(t)) == 9
    assert is_aperiodic_2wst(t) == (True, None)


def test_alternating_copier_is_not_aperiodic():
    assert is_aperiodic_2wst(alternating_copier_twowst()) == (False, "a")


def test_plain_copier_is_aperiodic():
    assert is_aperiodic_2wst(plain_copier_twowst()) == (True, None)
