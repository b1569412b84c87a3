import copy
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from omegatrans.words import UPWord
from omegatrans import fologic as fo
from omegatrans.fixtures import random_upword


# Reference evaluator: plain recursion on one assignment, with every
# quantifier ranging over four times the proved bound.  Used only as an
# oracle for the grid evaluator.
def ref_eval(f, w, env):
    margin = fo.witness_margin(f, w)

    def sat(f, env):
        if isinstance(f, fo.Eq):
            return env[f.x] == env[f.y]
        if isinstance(f, fo.Leq):
            return env[f.x] <= env[f.y]
        if isinstance(f, fo.Less):
            return env[f.x] < env[f.y]
        if isinstance(f, fo.Label):
            return w.letter_at(env[f.x]) == f.letter
        if isinstance(f, fo.Not):
            return not sat(f.body, env)
        if isinstance(f, fo.And):
            return sat(f.left, env) and sat(f.right, env)
        if isinstance(f, fo.Or):
            return sat(f.left, env) or sat(f.right, env)
        if isinstance(f, fo.Implies):
            return sat(f.right, env) if sat(f.left, env) else True
        if isinstance(f, (fo.Exists, fo.Forall)):
            top = max(env.values(), default=0)
            hits = (sat(f.body, dict(env, **{f.var: i}))
                    for i in range(1, 4 * (top + margin) + 1))
            return any(hits) if isinstance(f, fo.Exists) else all(hits)
        raise TypeError(f)

    return sat(f, env)


def test_parse_basics():
    f = fo.parse_formula("E x. (A y. (x <= y -> !L#(y)))")
    assert f == fo.Exists(
        "x",
        fo.Forall("y", fo.Implies(fo.Leq("x", "y"), fo.Not(fo.Label("#", "y")))),
    )
    assert fo.parse_formula("x < y & La(x) | x = y") == fo.Or(
        fo.And(fo.Less("x", "y"), fo.Label("a", "x")), fo.Eq("x", "y")
    )


def test_formulas_differ_by_connective():
    f, g = fo.Eq("x", "y"), fo.Label("a", "x")
    pairs = [
        (fo.Eq("x", "y"), fo.Leq("x", "y")),
        (fo.Leq("x", "y"), fo.Less("x", "y")),
        (fo.And(f, g), fo.Or(f, g)),
        (fo.Or(f, g), fo.Implies(f, g)),
        (fo.Exists("x", g), fo.Forall("x", g)),
        (fo.Not(fo.And(f, g)), fo.Not(fo.Or(f, g))),
    ]
    for a, b in pairs:
        assert a != b and not a == b, (a, b)
        assert len({a, b}) == 2, (a, b)
    assert fo.And(f, g) == fo.And(fo.Eq("x", "y"), fo.Label("a", "x"))
    assert hash(fo.And(f, g)) == hash(fo.And(fo.Eq("x", "y"), fo.Label("a", "x")))


def test_parse_precedence_and_quantifier_scope():
    # -> binds loosest and right-associative; quantifier runs to the end
    f = fo.parse_formula("A x. La(x) -> Lb(x) -> x = x")
    assert isinstance(f, fo.Forall)
    assert isinstance(f.body, fo.Implies)
    assert isinstance(f.body.right, fo.Implies)


def test_parse_errors():
    for bad in ["", "x <", "E x (x = x)", "La(x", "x = y extra"]:
        with pytest.raises(ValueError):
            fo.parse_formula(bad)


def test_quantifier_depth():
    assert fo.quantifier_depth(fo.parse_formula("x = y")) == 0
    assert fo.quantifier_depth(fo.parse_formula("E x. A y. x <= y")) == 2
    # pinned: the well-formed string axioms have depth 4
    assert fo.quantifier_depth(fo.is_string()) == 4


def test_free_variables():
    f = fo.parse_formula("E x. (x < y & La(z))")
    assert fo.free_variables(f) == {"y", "z"}


def test_evaluate_requires_assignment():
    with pytest.raises(ValueError):
        fo.evaluate(fo.parse_formula("La(x)"), UPWord("", "a"))


def test_positions_below_one_are_refused():
    w = UPWord("b", "a")
    label = fo.parse_formula("La(x)")
    assert not fo.evaluate(label, w, {"x": 1})
    for x in (0, -5):
        with pytest.raises(ValueError, match="variable 'x' is assigned position %d" % x):
            fo.evaluate(label, w, {"x": x})
    order = fo.parse_formula("x < y")
    with pytest.raises(ValueError, match="variable 'y' is assigned position 0"):
        fo.evaluate(order, w, {"x": 2, "y": 0})
    with pytest.raises(ValueError, match="variable 'x' is assigned position -5"):
        fo.bulk_evaluate(label, w, {"x": np.array([1, 2, -5])})
    with pytest.raises(ValueError, match="variable 'y' is assigned position 0"):
        fo.bulk_evaluate(order, w, {"x": np.arange(1, 4)[:, None],
                                    "y": np.arange(0, 3)[None, :]})
    assert fo.bulk_evaluate(label, w, {"x": np.array([], dtype=np.int64)}).shape == (0,)


def test_empty_position_arrays_give_empty_results():
    w = UPWord("ab#", "a")
    empty = np.array([], dtype=np.int64)
    for text in ("La(x)", "E y. (x < y & L#(y))"):
        f = fo.parse_formula(text)
        out = fo.bulk_evaluate(f, w, {"x": empty})
        assert out.shape == (0,) and out.dtype == bool, text
    grid = {"x": empty[:, None], "y": np.arange(1, 4)[None, :]}
    out = fo.bulk_evaluate(fo.parse_formula("E z. (x < z & z < y)"), w, grid)
    assert out.shape == (0, 3) and out.dtype == bool


def test_results_have_the_broadcast_shape_of_the_assignment():
    w = UPWord("ab", "#a")
    xs, ys = np.arange(1, 4)[:, None], np.arange(1, 6)[None, :]
    for text in ("La(x)", "E z. Lb(z)", "(E z. L#(z)) | x < y", "A z. (z < z)"):
        out = fo.bulk_evaluate(fo.parse_formula(text), w, {"x": xs, "y": ys})
        assert out.shape == (3, 5) and out.dtype == bool, text
    assert fo.bulk_evaluate(fo.parse_formula("E z. Lb(z)"), w, {}).shape == ()


def test_non_integer_positions_are_refused():
    w = UPWord("ab", "c")
    label = fo.parse_formula("La(x)")
    for x in (1.9, True, "2", np.float64(1.0)):
        with pytest.raises(TypeError, match="variable 'x' is assigned"):
            fo.evaluate(label, w, {"x": x})
    order = fo.parse_formula("x < y")
    for ys in (np.array([1.0, 2.0]), np.array([True, False]), ["1", "2"]):
        with pytest.raises(TypeError, match="variable 'y' is assigned"):
            fo.bulk_evaluate(order, w, {"x": np.arange(1, 3), "y": ys})
    # every integer dtype is read as positions
    assert fo.evaluate(label, w, {"x": np.uint8(1)})
    assert fo.bulk_evaluate(label, w, {"x": np.array([1, 2, 5], dtype=np.uint64)}).tolist() == [
        True, False, False]
    assert fo.bulk_evaluate(order, w, {"x": [1, 3], "y": np.array([2, 2], dtype=np.int8)}).tolist() == [
        True, False]


def test_label_and_order_atoms():
    w = UPWord("ab#", "a")
    assert fo.evaluate(fo.parse_formula("L#(x)"), w, {"x": 3})
    assert not fo.evaluate(fo.parse_formula("L#(x)"), w, {"x": 4})
    assert fo.evaluate(fo.parse_formula("x < y"), w, {"x": 2, "y": 9})


def test_shorthands_on_separator_word():
    w = UPWord("ab#", "a")  # single # at position 3
    reach = fo.reaches_letter("x", "#")
    assert fo.evaluate(reach, w, {"x": 1})
    assert fo.evaluate(reach, w, {"x": 2})
    assert not fo.evaluate(reach, w, {"x": 3})
    assert not fo.evaluate(reach, w, {"x": 7})
    btw = fo.between_letter("x", "y", "#")
    assert fo.evaluate(btw, w, {"x": 5, "y": 1})  # orientation-free
    assert fo.evaluate(btw, w, {"x": 1, "y": 5})
    assert not fo.evaluate(btw, w, {"x": 4, "y": 9})
    first = fo.is_first("x")
    assert fo.evaluate(first, w, {"x": 1})
    assert not fo.evaluate(first, w, {"x": 2})


def test_domain_sentence_finitely_many_separators():
    dom = fo.parse_formula("E x. (A y. (x < y -> !L#(y)))")
    assert fo.evaluate(dom, UPWord("ab#", "a"))
    assert fo.evaluate(dom, UPWord("", "b"))


def test_edge_witness_artifact_is_gone():
    # Bounded quantification once accepted the finitely-many-# sentence on a
    # word with infinitely many #s: a witness at the horizon's edge made the
    # inner universal vacuous at every horizon.
    dom = fo.parse_formula("E x. (A y. (x < y -> !L#(y)))")
    assert not fo.evaluate(dom, UPWord("", "ab#"))
    always_a = fo.parse_formula("E x. A y. (x < y -> La(y))")
    assert not fo.evaluate(always_a, UPWord("", "b"))
    assert not fo.evaluate(always_a, UPWord("a", "b"))
    assert fo.evaluate(always_a, UPWord("b", "a"))


def test_last_position_formula_is_false():
    # "the letter at the largest position is a": an infinite word has no
    # largest position
    f = fo.parse_formula("E x. ((A y. y <= x) & La(x))")
    assert not fo.evaluate(f, UPWord("", "ab"))
    assert not fo.evaluate(f, UPWord("", "a"))


def test_witness_margin():
    w = UPWord("ab#", "ba")
    f = fo.parse_formula("E x. A y. x <= y")
    # |prefix| + (2^depth + 1) * |period| = 3 + 5*2
    assert fo.witness_margin(f, w) == 13
    assert fo.witness_margin(fo.parse_formula("x < y"), w) == 3 + 2 * 2


def test_is_string_holds_on_infinite_words():
    assert fo.evaluate(fo.is_string(), UPWord("", "a"))
    assert fo.evaluate(fo.is_string(), UPWord("a#", "b"))


variables = st.sampled_from(["x", "y", "z"])


def formulas(depth):
    atoms = st.one_of(
        st.builds(fo.Eq, variables, variables),
        st.builds(fo.Leq, variables, variables),
        st.builds(fo.Less, variables, variables),
        st.builds(fo.Label, st.sampled_from("ab#"), variables),
    )
    if depth == 0:
        return atoms
    sub = formulas(depth - 1)
    return st.one_of(
        atoms,
        st.builds(fo.Not, sub),
        st.builds(fo.And, sub, sub),
        st.builds(fo.Or, sub, sub),
        st.builds(fo.Implies, sub, sub),
        st.builds(fo.Exists, variables, sub),
        st.builds(fo.Forall, variables, sub),
    )


@given(formulas(3))
def test_format_parse_roundtrip(f):
    assert fo.parse_formula(fo.format_formula(f)) == f


@settings(max_examples=200, deadline=None)
@given(
    formulas(2),
    st.text(alphabet="ab#", max_size=2),
    st.text(alphabet="ab#", min_size=1, max_size=2),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
)
def test_bounded_eval_matches_naive(f, prefix, period, px, py, pz):
    w = UPWord(prefix, period)
    env = {"x": px, "y": py, "z": pz}
    assert fo.evaluate(f, w, env) == ref_eval(f, w, env)


@settings(max_examples=150, deadline=None)
@given(
    formulas(2),
    st.text(alphabet="ab#", max_size=2),
    st.text(alphabet="ab#", min_size=1, max_size=2),
    st.integers(min_value=1, max_value=5),
)
def test_bulk_evaluation_matches_scalar_evaluation(f, prefix, period, pz):
    # The 0-d short circuits and the letter lookup of single positions
    # against the array path, cell by cell.
    w = UPWord(prefix, period)
    grid = np.arange(1, 6)
    bulk = fo.bulk_evaluate(f, w, {"x": grid[:, None], "y": grid[None, :], "z": pz})
    assert bulk.shape == (5, 5)
    for x in range(1, 6):
        for y in range(1, 6):
            env = {"x": x, "y": y, "z": pz}
            assert bulk[x - 1, y - 1] == fo.evaluate(f, w, env), (x, y)


def test_shared_subformulas_respect_their_scope():
    # One quantified subformula under two binders, with y bound in the first
    # conjunct and free in the second: sharing it across scopes would be wrong.
    inner = fo.parse_formula("E z. (y < z & Lb(z))")
    f = fo.And(fo.Exists("y", inner), fo.Exists("x", inner))
    g = fo.Or(fo.Not(fo.Forall("y", fo.Implies(fo.Label("a", "y"), inner))), inner)
    words = [UPWord("ab", "a"), UPWord("bbb", "a"), UPWord("", "ab"), UPWord("b#", "#")]
    for w in words:
        for formula in (f, g):
            for y in range(1, 7):
                env = {"x": 1, "y": y}
                want = ref_eval(formula, w, env)
                assert fo.evaluate(formula, w, env) == want, (w, formula, y)
                bulk = fo.bulk_evaluate(formula, w, {"x": 1, "y": np.array([y, y])})
                assert bulk.tolist() == [want, want], (w, formula, y)


def test_formulas_stay_values_after_evaluation():
    w = UPWord("ab", "#a")
    for text in ("E y. (x < y & L#(y))", "(E z. Lb(z)) | !(E z. Lb(z))", "La(x)"):
        f = fo.parse_formula(text)
        before = fo.evaluate(f, w, {"x": 2})
        clone = copy.deepcopy(f)
        assert clone == f and hash(clone) == hash(f)
        thawed = pickle.loads(pickle.dumps(f))
        assert thawed == f and hash(thawed) == hash(f)
        assert fo.evaluate(thawed, w, {"x": 2}) == before
        assert fo.format_formula(thawed) == fo.format_formula(f)
    assert fo.Eq("x", "y") != fo.Leq("x", "y")


def test_closed_form_families_on_random_words():
    infinitely_many = fo.parse_formula("A x. E y. (x < y & La(y))")
    eventually_always = fo.parse_formula("E x. A y. (x < y -> La(y))")
    last = fo.parse_formula("E x. (La(x) & (A y. (x < y -> !La(y))))")
    rng = random.Random(7)
    for _ in range(300):
        w = random_upword(rng, "ab", max_prefix=4, max_period=3)
        assert fo.evaluate(infinitely_many, w) == ("a" in w.period), w
        assert fo.evaluate(eventually_always, w) == (set(w.period) == {"a"}), w
        assert fo.evaluate(last, w) == ("a" in w.prefix and "a" not in w.period), w


@settings(max_examples=100, deadline=None)
@given(
    formulas(1),
    st.text(alphabet="ab#", max_size=2),
    st.text(alphabet="ab#", min_size=1, max_size=2),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
)
def test_witness_past_the_margin_shifts_back_one_period(body, prefix, period, py, pz):
    # The shift lemma behind the bound: past top + margin, a witness for x
    # is a witness exactly when x - |period| is.
    w = UPWord(prefix, period)
    f = fo.Exists("x", body)
    start = max(py, pz) + fo.witness_margin(f, w) + 1
    env = {"y": py, "z": pz}
    for x in range(start, start + 2 * len(w.period)):
        here = ref_eval(body, w, dict(env, x=x))
        back = ref_eval(body, w, dict(env, x=x - len(w.period)))
        assert here == back
