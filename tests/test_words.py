import random

import pytest
from hypothesis import given, strategies as st

from omegatrans.fixtures import mirror_corpus, mirror_sst, mirror_twowst, random_upword
from omegatrans.sst import analyze_run
from omegatrans.twowst import _WordContext
from omegatrans.words import (
    PAD,
    UPWord,
    fold,
    lasso,
    spell,
    parse_word,
    format_word,
    first_divergence,
    distance,
)


def test_canonical_primitive_period():
    w = UPWord("x", "abab")
    assert w.period == "ab"
    assert w.prefix == "x"


def test_canonical_prefix_absorption():
    # abc(bc)^w spells a,b,c,b,c,... = a(bc)^w
    assert UPWord("abc", "bc") == UPWord("a", "bc")
    assert UPWord("abc", "bc").prefix == "a"
    # aaa(a)^w = (a)^w
    assert UPWord("aaa", "a") == UPWord("", "a")


def test_letter_at_and_prefix_of():
    w = UPWord("ab#", "ba")
    assert [w.letter_at(i) for i in range(1, 8)] == list("ab#bab a".replace(" ", ""))
    assert w.prefix_of(7) == "ab#baba"
    assert w.prefix_of(0) == ""
    with pytest.raises(IndexError):
        w.letter_at(0)


def test_negative_positions_and_columns_raise():
    w = UPWord("ab#", "a")
    with pytest.raises(IndexError):
        w.prefix_of(-1)
    with pytest.raises(IndexError):
        fold(-1, 2, 3)


def test_spell_pads_an_empty_block_and_cuts_a_long_head():
    assert spell("ab", "", 5) == "ab" + PAD * 3
    assert spell("", "", 2) == PAD * 2
    assert spell("abc", "", 2) == "ab"
    assert spell("abc", "xy", 2) == "ab"
    assert spell("abc", "xy", 0) == ""
    assert spell("a", "xy", 6) == "axyxyx"


def test_suffix_inside_prefix():
    w = UPWord("ab", "c")
    assert w.suffix(3) == UPWord("", "c")
    assert w.suffix(1) == UPWord("b", "c")


def test_suffix_rotates_period():
    w = UPWord("", "ab")
    assert w.suffix(2) == w
    assert w.suffix(1) == UPWord("", "ba")
    assert w.suffix(5) == UPWord("", "ba")


def test_equality_is_word_equality():
    assert UPWord("a", "ba") == UPWord("ab", "ab")
    assert UPWord("", "ab") != UPWord("", "ba")


def test_divergence_and_distance():
    w1 = UPWord("", "ab")
    w2 = UPWord("", "ba")
    assert first_divergence(w1, w2) == 1
    assert distance(w1, w2) == 0.5
    w3 = UPWord("ab", "ab")
    assert first_divergence(w1, w3) is None
    assert distance(w1, w3) == 0.0
    w4 = UPWord("aaab", "ab")
    assert first_divergence(w1, w4) == 2
    assert distance(w1, w4) == 0.25


def test_parse_and_format():
    w = parse_word("ab#(a)^w")
    assert w == UPWord("ab#", "a")
    assert format_word(w) == "ab#(a)^w"
    assert parse_word("(ab)^w") == UPWord("", "ab")
    assert parse_word("\\((a)^w") == UPWord("(", "a")
    assert format_word(UPWord(")", "a")) == "\\)(a)^w"


def test_parse_rejects_garbage():
    for bad in ["ab", "ab()^w", "a(b", "a(b)^w)x", "(a)(b)^w"]:
        with pytest.raises(ValueError):
            parse_word(bad)


words = st.builds(
    UPWord,
    st.text(alphabet="ab#", max_size=6),
    st.text(alphabet="ab#", min_size=1, max_size=4),
)


@given(words)
def test_roundtrip(w):
    assert parse_word(format_word(w)) == w


@given(words, st.integers(min_value=0, max_value=12))
def test_suffix_agrees_with_letters(w, j):
    s = w.suffix(j)
    for i in range(1, 10):
        assert s.letter_at(i) == w.letter_at(i + j)


@given(words, st.integers(min_value=1, max_value=10))
def test_prefix_of_matches_letter_at(w, n):
    p = w.prefix_of(n)
    assert len(p) == n
    assert all(p[i - 1] == w.letter_at(i) for i in range(1, n + 1))


@given(words, words)
def test_distance_zero_iff_equal(w1, w2):
    assert (distance(w1, w2) == 0.0) == (w1 == w2)


@given(words, st.text(alphabet="ab#", max_size=3))
def test_prepending_prefix_keeps_tail(w, extra):
    w2 = UPWord(extra + w.prefix, w.period)
    assert w2.suffix(len(extra)) == w


def test_lasso_entry_is_the_first_periodic_column_and_its_cycle_is_minimal():
    """Brute force on random deterministic runs: from column stable on, the
    (value, column class) pairs are periodic from entry with least period
    cycle, and from no earlier column with any period."""
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(1, 5)
        delta = {(q, a): rng.randrange(n) for q in range(n) for a in "ab"}
        w = random_upword(rng, "ab", 3, 3)
        stable, period = len(w.prefix), len(w.period)
        horizon = stable + 3 * n * period
        run = [0]
        for col in range(horizon):
            run.append(delta[(run[-1], w.letter_at(col + 1))])

        def periodic(start, p):
            return p % period == 0 and all(
                run[c] == run[c + p] for c in range(start, horizon - p + 1)
            )

        values, entry, cycle = lasso(
            0, lambda q, col: delta[(q, w.letter_at(col + 1))], stable, period
        )
        assert values == run[: entry + cycle + 1]
        assert entry >= stable and periodic(entry, cycle)
        assert not any(periodic(entry, p) for p in range(1, cycle))
        assert not any(
            periodic(c, p)
            for c in range(stable, entry)
            for p in range(period, n * period + 1, period)
        )


@given(st.data())
def test_fold_reads_the_run_at_any_column(data):
    """On a random lasso, values[fold(c, entry, cycle)] is the run stepped c
    times, for c up to entry + 5 cycles."""
    n = data.draw(st.integers(1, 4))
    stable = data.draw(st.integers(0, 4))
    period = data.draw(st.integers(1, 3))
    table = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    head = data.draw(st.lists(table, min_size=stable, max_size=stable))
    loop = data.draw(st.lists(table, min_size=period, max_size=period))

    def step(value, col):
        return head[col][value] if col < stable else loop[(col - stable) % period][value]

    start = data.draw(st.integers(0, n - 1))
    values, entry, cycle = lasso(start, step, stable, period)
    value = start
    for c in range(entry + 5 * cycle + 1):
        assert values[fold(c, entry, cycle)] == value, c
        value = step(value, c)


# (word, settle_col and infinity of analyze_run(mirror_sst(), word),
#  entry_pos and cycle_len of _WordContext(mirror_twowst(), word)), as
# computed before the runners shared one lasso finder
MIRROR_LASSOS = [
    ("(a)^w", 1, "2", 1, 1),
    ("(ab)^w", 2, "2", 1, 2),
    ("(ba)^w", 2, "2", 1, 2),
    ("#(a)^w", 2, "2", 2, 1),
    ("##(ba)^w", 4, "2", 3, 2),
    ("a#(b)^w", 3, "2", 3, 1),
    ("ab#(a)^w", 4, "2", 4, 1),
    ("abbb#ba#(ab)^w", 10, "2", 9, 2),
    ("#a#(b)^w", 4, "2", 4, 1),
    ("ba#aa#b(ba)^w", 7, "2", 8, 2),
    ("aaa#b#(ba)^w", 8, "2", 7, 2),
    ("b#a#b#(a)^w", 7, "2", 7, 1),
    ("##b#(baa)^w", 7, "2", 5, 3),
    ("a#baa#(ab)^w", 8, "2", 7, 2),
    ("b#baa#(abb)^w", 9, "2", 7, 3),
    ("#bb#bb#(a)^w", 8, "2", 8, 1),
    ("##aba#(b)^w", 7, "2", 7, 1),
    ("baa##ab#(aab)^w", 11, "2", 9, 3),
    ("aa#b#bb#(ba)^w", 10, "2", 9, 2),
    ("ab#b#b#(aba)^w", 10, "2", 8, 3),
    ("bbb#aaa#(b)^w", 9, "2", 9, 1),
    ("ab###(a)^w", 6, "2", 6, 1),
    ("(aba)^w", 3, "2", 1, 3),
    ("#(ab)^w", 3, "2", 2, 2),
    ("(b)^w", 1, "2", 1, 1),
    ("bab###(bba)^w", 9, "2", 7, 3),
    ("##(aab)^w", 5, "2", 3, 3),
    ("b#a#abb#(ba)^w", 10, "2", 9, 2),
    ("bba##a#(ba)^w", 9, "2", 8, 2),
    ("(bba)^w", 3, "2", 1, 3),
    ("###(b)^w", 4, "2", 4, 1),
    ("bbb##(b)^w", 6, "2", 6, 1),
    ("b#(b)^w", 3, "2", 3, 1),
    ("ab#aba#ba#(bba)^w", 13, "2", 11, 3),
    ("aaa#(ba)^w", 6, "2", 5, 2),
    ("bba#(a)^w", 5, "2", 5, 1),
    ("a#(bab)^w", 5, "2", 3, 3),
    ("ba#(a)^w", 4, "2", 4, 1),
    ("ab#(ab)^w", 5, "2", 4, 2),
    ("aaa#aab##(bba)^w", 12, "2", 10, 3),
    ("ab#a#bb#(b)^w", 9, "2", 9, 1),
    ("bba#ba#b#(a)^w", 10, "2", 10, 1),
    ("a#aaa#aa#(b)^w", 10, "2", 10, 1),
    ("aab##(a)^w", 6, "2", 6, 1),
    ("aaa#b#(b)^w", 7, "2", 7, 1),
    ("#(b)^w", 2, "2", 2, 1),
    ("#ab#(a)^w", 5, "2", 5, 1),
    ("#bba#abb#(b)^w", 10, "2", 10, 1),
    ("#aaa#(ba)^w", 7, "2", 6, 2),
    ("ba##bba#(a)^w", 9, "2", 9, 1),
]


def test_lasso_values_of_the_mirror_runs_are_pinned():
    t = mirror_sst()
    t2 = mirror_twowst()
    rows = []
    for w in mirror_corpus():
        ana = analyze_run(t, w)
        ctx = _WordContext(t2, w)
        infinity = "".join(sorted(map(str, ana.infinity)))
        rows.append((format_word(w), ana.settle_col, infinity, ctx.entry_pos, ctx.cycle_len))
    assert rows == MIRROR_LASSOS
