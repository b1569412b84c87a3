import numpy as np
import pytest

from omegatrans.fixtures import mirror_corpus, mirror_fot, mirror_sst, mirror_twowst
from omegatrans.fologic import evaluate, parse_formula
from omegatrans.fot import Fot, bulk_evaluate, fot_domain, node_label, run_fot
from omegatrans.sst import PAD, run_output
from omegatrans.twowst import run_2wst
from omegatrans.words import UPWord


def tiny_fot(labels, order, copies=(1,)):
    return Fot("ab", copies, parse_formula("E x. x = x"), labels, order)


def test_constructor_validates_shape():
    with pytest.raises(ValueError, match="missing order formula"):
        Fot("a", (1, 2), parse_formula("E x. x = x"), {}, {(1, 1): parse_formula("x < y")})
    with pytest.raises(ValueError, match="must be a sentence"):
        Fot("a", (1,), parse_formula("La(x)"), {}, {(1, 1): parse_formula("x < y")})
    with pytest.raises(ValueError, match="stray free variables"):
        tiny_fot({(1, "a"): parse_formula("x < y")}, {(1, 1): parse_formula("x < y")})
    with pytest.raises(ValueError, match="stray free variables"):
        tiny_fot({}, {(1, 1): parse_formula("x < z")})


def test_domain_is_eventually_separator_free():
    t = mirror_fot()
    assert fot_domain(t, UPWord("ab#", "a"))
    assert fot_domain(t, UPWord("", "b"))
    assert fot_domain(t, UPWord("ba#ab#a#", "ba"))
    # the period keeps producing separators
    assert not fot_domain(t, UPWord("", "a#"))
    assert not fot_domain(t, UPWord("ab", "#"))


def test_node_labels_on_sample_word():
    t = mirror_fot()
    w = UPWord("ab#", "a")
    assert node_label(t, w, 1, 1) == "a"
    assert node_label(t, w, 2, 2) == "b"
    assert node_label(t, w, 1, 3) is None
    assert node_label(t, w, 2, 4) is None
    assert node_label(t, w, 3, 1) is None
    assert node_label(t, w, 3, 3) == "#"
    assert node_label(t, w, 3, 7) == "a"


def test_ambiguous_labels_raise():
    amb = tiny_fot(
        {(1, "a"): parse_formula("La(x)"), (1, "b"): parse_formula("La(x)")},
        {(1, 1): parse_formula("x < y")},
    )
    w = UPWord("", "a")
    with pytest.raises(ValueError, match="ambiguous"):
        node_label(amb, w, 1, 1)
    with pytest.raises(ValueError, match="ambiguous"):
        run_fot(amb, w, 5)


def test_run_mirror_frozen_prefixes():
    t = mirror_fot()
    assert run_fot(t, UPWord("ab#", "a"), 20) == "baab#" + "a" * 15
    assert run_fot(t, UPWord("abbb#ba#", "ab"), 20) == "bbbaabbb#abba#ababab"
    assert run_fot(t, UPWord("#a#", "b"), 15) == "#aa#" + "b" * 11
    assert run_fot(t, UPWord("", "ab"), 6) == "ababab"


def test_run_agrees_with_streaming_and_twoway():
    fo = mirror_fot()
    st = mirror_sst()
    tw = mirror_twowst()
    words = [
        UPWord("", "a"),
        UPWord("#", "b"),
        UPWord("ab#", "a"),
        UPWord("ba#ab#a#", "ba"),
        UPWord("#a#", "b"),
    ]
    for w in words:
        want = run_output(st, w, 40)
        assert run_fot(fo, w, 40) == want
        assert run_2wst(tw, w, 40) == want


def test_bulk_evaluation_matches_scalar():
    t = mirror_fot()
    w = UPWord("ab#a#", "ba")
    xs = np.arange(1, 11)
    for f in t.order.values():
        grid = bulk_evaluate(f, w, {"x": xs[:, None], "y": xs[None, :]})
        for i in range(1, 11):
            for j in range(1, 11):
                assert bool(grid[i - 1, j - 1]) == evaluate(f, w, {"x": i, "y": j})
    for f in t.labels.values():
        vec = bulk_evaluate(f, w, {"x": xs})
        for i in range(1, 11):
            assert bool(vec[i - 1]) == evaluate(f, w, {"x": i})


def test_not_string_shaped_when_order_is_empty():
    flat = tiny_fot(
        {(1, "a"): parse_formula("La(x)"), (2, "a"): parse_formula("La(x)")},
        {(c, d): parse_formula("x < y & y < x") for c in (1, 2) for d in (1, 2)},
        copies=(1, 2),
    )
    with pytest.raises(ValueError, match="not string-shaped: .* unique next output node"):
        run_fot(flat, UPWord("", "a"), 5)


def test_finite_output_is_padded():
    one = tiny_fot(
        {(1, "a"): parse_formula("La(x) & !(E y. (y < x))")},
        {(1, 1): parse_formula("x < y")},
    )
    assert run_fot(one, UPWord("", "a"), 5) == "a" + PAD * 4


def test_run_decides_string_shape_exactly():
    w = UPWord("", "a")
    never = "x < y & y < x"
    # a1 a2 b1 a3 b2 ...: node a_x comes before b_y exactly when x <= y + 1
    interleaved = tiny_fot(
        {(1, "a"): parse_formula("La(x)"), (2, "b"): parse_formula("La(x)")},
        {(1, 1): parse_formula("x < y"), (2, 2): parse_formula("x < y"),
         (1, 2): parse_formula("!(E z. (y < z & z < x))"),
         (2, 1): parse_formula("E z. (x < z & z < y)")},
        copies=(1, 2),
    )
    assert run_fot(interleaved, w, 12) == "aa" + "ba" * 5
    # position 1 comes after every other node: order type omega + 1
    last = tiny_fot(
        {(1, "a"): parse_formula("La(x)")},
        {(1, 1): parse_formula("(x < y | !(E z. z < y)) & (E z. z < x)")},
    )
    # the reverse order: omega*
    reverse = tiny_fot({(1, "a"): parse_formula("La(x)")}, {(1, 1): parse_formula("y < x")})
    # copy 2 is a chain that runs backwards, one edge into each node, so it
    # is never reached while copy 1 runs forever
    backwards = tiny_fot(
        {(1, "a"): parse_formula("La(x)"), (2, "b"): parse_formula("La(x)")},
        {(1, 1): parse_formula("x < y"),
         (2, 2): parse_formula("y < x & !(E z. (y < z & z < x))"),
         (1, 2): parse_formula(never), (2, 1): parse_formula(never)},
        copies=(1, 2),
    )
    # no node comes first in the reverse order; in the other two the
    # removals never reach position 1 of copy 1 or any node of copy 2
    for t, why in ((reverse, "unique next output node"),
                   (last, "does not repeat"), (backwards, "does not repeat")):
        with pytest.raises(ValueError, match="not string-shaped: the .*" + why):
            run_fot(t, w, 12)


def test_run_equals_the_streaming_mirror_at_any_length():
    fo, st = mirror_fot(), mirror_sst()
    for w in mirror_corpus():
        for k in (40, 2100, 10**5):
            assert run_fot(fo, w, k) == run_output(st, w, k), (w, k)


def test_run_zero_letters_is_empty():
    assert run_fot(mirror_fot(), UPWord("", "a"), 0) == ""
