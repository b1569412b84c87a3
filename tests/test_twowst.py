import random

import pytest

from omegatrans.fixtures import (
    alternating_copier_twowst,
    mirror_lookahead_dma,
    mirror_sst,
    mirror_twowst,
    plain_copier_twowst,
)
from omegatrans.muller import CapExceeded
from omegatrans.sst import NotInDomain, run_output
from omegatrans.twowst import (
    RIGHT,
    STAY,
    TwoWst,
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


def test_lookahead_classifier():
    a = mirror_lookahead_dma()
    assert a.accepts(UPWord("ab", "ba"), start="n")
    assert not a.accepts(UPWord("ab", "ba"), start="y")
    assert a.accepts(UPWord("ab#", "a"), start="y")
    assert not a.accepts(UPWord("ab#", "a"), start="n")
    assert a.accepts(UPWord("", "a#"), start="y")
    assert a.accepts(UPWord("", "a"), start="m")
    assert not a.accepts(UPWord("", "a"), start="d")


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


def test_reaches_mirror():
    t = mirror_twowst()
    w = UPWord("ab#", "a")
    assert reaches(t, w, "t", 1, "q", 1)
    assert reaches(t, w, "t", 1, "t", 6)
    assert reaches(t, w, "t", 1, "t", 100)
    assert not reaches(t, w, "t", 1, "p", 5)
    assert not reaches(t, w, "q", 1, "p", 1)


def test_step_budgets_raise_cap_exceeded():
    t = mirror_twowst()
    w = UPWord("ab#", "a")
    with pytest.raises(CapExceeded, match="no traveling loop within 3 steps"):
        run_2wst(t, w, 10, max_steps=3)
    with pytest.raises(CapExceeded, match="no traveling loop within 3 steps"):
        reaches(t, w, "t", 1, "t", 100, max_steps=3)
    with pytest.raises(CapExceeded, match="crossing did not resolve within 2 steps"):
        anchored_behavior(t, "ab#", UPWord("", "a"), max_steps=2)


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
    assert len(twowst_monoid(t).elements) == 9
    assert is_aperiodic_2wst(t) == (True, None)


def test_alternating_copier_is_not_aperiodic():
    assert is_aperiodic_2wst(alternating_copier_twowst()) == (False, "a")


def test_plain_copier_is_aperiodic():
    assert is_aperiodic_2wst(plain_copier_twowst()) == (True, None)
