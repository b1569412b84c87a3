"""Acceptance checks, one per headline claim, each with a wall-clock budget.

The frozen values here repeat the per-module tests on purpose: this file is
the one-stop record of what the package promises, and the conftest hook
prints a PASS/FAIL line per check at the end of the run.  Budgets are
asserted in seconds via perf_counter.
"""
import random
import time

from omegatrans.words import UPWord, parse_word
from omegatrans.muller import is_aperiodic, matrix_of_word, power_cycle_length
from omegatrans.sst import (
    FlowCache,
    flow_matrix,
    is_1_bounded,
    is_aperiodic_sst,
    path_conditions,
    run_output,
    values_after,
)
from omegatrans.outputgraph import IN, build_output_graph, in_out_value
from omegatrans.twowst import (
    anchored_behavior,
    compose_behaviors,
    element_of_word,
    is_aperiodic_2wst,
    run_2wst,
)
from omegatrans.fot import run_fot
from omegatrans.fologic import evaluate
from omegatrans.constructions import (
    eliminate_lookaround,
    pipeline_output,
    twowst_to_sst_sf,
)
from omegatrans.fixtures import (
    alternating_copier_twowst,
    domain_words,
    last_letter_dma,
    mirror_corpus,
    mirror_fot,
    mirror_sst,
    mirror_twowst,
    output_graph_demo_sst,
    plain_copier_twowst,
    random_copyless_sst,
    settling_loops_dma,
    settling_loops_sst,
)


def entries_of(m):
    return {(p, q): e for p, row in m.rows.items() for q, e in row.items()}


def grid(m):
    return {pp: dict(row) for pp, row in m.rows.items()}


def reach_closure(graph):
    """Plain BFS descendants of every node, reflexively."""
    reach = {}
    for start in graph.nodes:
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for v in graph.out_edges(u):
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        reach[start] = seen
    return reach


def test_c01_monoid_matrices_of_the_settling_loops_automaton():
    t0 = time.perf_counter()
    d = settling_loops_dma()
    assert entries_of(matrix_of_word(d, "ab")) == {
        ("q", "r"): (0, 0),
        ("r", "t"): (0, 0),
        ("t", "q"): (0, 0),
    }
    assert entries_of(matrix_of_word(d, "bb")) == {
        ("q", "q"): (1, 0),
        ("r", "r"): (0, 0),
        ("t", "t"): (0, 0),
    }
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, elapsed


def test_c02_flow_matrices_of_the_settling_loops_transducer():
    t0 = time.perf_counter()
    t = settling_loops_sst()
    # coordinate order ({q}, {r}); the count-2 entries record the doubled
    # variable occurrences of the copyful updates
    assert grid(flow_matrix(t, "ab")) == {
        ("t", "X"): {("q", "X"): (1, (0, 0)), ("q", "Y"): (2, (0, 0))},
        ("t", "Y"): {("q", "X"): (0, (0, 0)), ("q", "Y"): (0, (0, 0))},
        ("q", "X"): {("r", "X"): (0, (0, 0)), ("r", "Y"): (0, (0, 0))},
        ("q", "Y"): {("r", "X"): (1, (0, 0)), ("r", "Y"): (1, (0, 0))},
        ("r", "X"): {("t", "X"): (1, (0, 0)), ("t", "Y"): (0, (0, 0))},
        ("r", "Y"): {("t", "X"): (0, (0, 0)), ("t", "Y"): (1, (0, 0))},
    }
    assert grid(flow_matrix(t, "bb")) == {
        ("t", "X"): {("t", "X"): (0, (0, 0)), ("t", "Y"): (0, (0, 0))},
        ("t", "Y"): {("t", "X"): (1, (0, 0)), ("t", "Y"): (1, (0, 0))},
        ("q", "X"): {("q", "X"): (1, (1, 0)), ("q", "Y"): (2, (1, 0))},
        ("q", "Y"): {("q", "X"): (0, (1, 0)), ("q", "Y"): (1, (1, 0))},
        ("r", "X"): {("r", "X"): (0, (0, 0)), ("r", "Y"): (0, (0, 0))},
        ("r", "Y"): {("r", "X"): (1, (0, 0)), ("r", "Y"): (1, (0, 0))},
    }
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, elapsed


def test_c03_mirror_streaming_run_on_the_worked_word():
    t0 = time.perf_counter()
    out = run_output(mirror_sst(), parse_word("ab#(a)^w"), 20)
    assert out == "baab#" + "a" * 15
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, elapsed


def test_c04_three_models_of_the_mirror_map_agree_on_the_corpus():
    t0 = time.perf_counter()
    two, streaming, logical = mirror_twowst(), mirror_sst(), mirror_fot()
    corpus = mirror_corpus()
    assert len(corpus) == 50
    for w in corpus:
        reference = run_2wst(two, w, 200)
        assert run_output(streaming, w, 200) == reference, w
        assert run_fot(logical, w, 200) == reference, w
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, elapsed


def test_c05_anchored_behavior_sets_of_the_first_block():
    t0 = time.perf_counter()
    blr, brr = anchored_behavior(mirror_twowst(), "ab#", UPWord("", "a"))
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
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, elapsed


def test_c06_behavior_composition_matches_direct_simulation():
    t0 = time.perf_counter()
    rng = random.Random(11)
    machines = [mirror_twowst(), alternating_copier_twowst(), plain_copier_twowst()]
    mismatches = []
    for n in range(200):
        t = machines[n % 3]
        al = "".join(t.alphabet)
        w1 = "".join(rng.choice(al) for _ in range(rng.randint(0, 4)))
        w2 = "".join(rng.choice(al) for _ in range(rng.randint(0, 4)))
        composed = compose_behaviors(element_of_word(t, w1), element_of_word(t, w2))
        if composed != element_of_word(t, w1 + w2):
            mismatches.append((n % 3, w1, w2))
    assert mismatches == []
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, elapsed


def test_c07_aperiodicity_verdicts_on_the_four_worked_machines():
    budget = 60.0
    t0 = time.perf_counter()
    d = settling_loops_dma()
    assert is_aperiodic(d) == (False, "a")
    # a word of b's cycles too: b swaps two states, so its matrix alternates
    assert power_cycle_length(matrix_of_word(d, "b")) == 2
    assert time.perf_counter() - t0 < budget

    t0 = time.perf_counter()
    assert is_aperiodic_2wst(alternating_copier_twowst()) == (False, "a")
    assert time.perf_counter() - t0 < budget

    t0 = time.perf_counter()
    assert is_aperiodic(last_letter_dma()) == (True, None)
    assert time.perf_counter() - t0 < budget

    t0 = time.perf_counter()
    assert is_aperiodic_2wst(mirror_twowst()) == (True, None)
    assert time.perf_counter() - t0 < budget


def test_c08_copyless_machines_are_1_bounded():
    t0 = time.perf_counter()
    rng = random.Random(12)
    failures = []
    for n in range(100):
        t = random_copyless_sst(rng)
        verdict, witness = is_1_bounded(t)
        if not verdict:
            failures.append((n, witness))
    assert failures == []
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, elapsed


def test_c09_graph_reachability_equals_flow_path_conditions():
    t0 = time.perf_counter()
    rng = random.Random(13)
    picked = []
    while len(picked) < 20:
        t = random_copyless_sst(rng)
        if not is_aperiodic_sst(t)[0]:
            continue
        words = domain_words(t, rng, 10, settle_cap=12)
        if len(words) < 10:
            continue
        picked.append((t, words))
    mismatches = 0
    for t, words in picked:
        for w in words:
            fc = FlowCache(t, w)
            g = build_output_graph(t, w, 12, cache=fc)
            reach = reach_closure(g)
            for u in g.nodes:
                for v in g.nodes:
                    got = path_conditions(
                        t, w, u[0], u[1], u[2], v[0], v[1], v[2],
                        horizon=12, cache=fc,
                    )
                    if got != (v in reach[u]):
                        mismatches += 1
    assert mismatches == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, elapsed


def test_c10_in_out_walks_spell_the_variable_values():
    t0 = time.perf_counter()
    t = output_graph_demo_sst()
    w = UPWord("123456", "z")
    g = build_output_graph(t, w, 9)
    for x, i, side in g.nodes:
        if side == IN:
            assert in_out_value(g, x, i) == values_after(t, w, i)[x]

    rng = random.Random(14)
    checked = 0
    while checked < 10:
        t = random_copyless_sst(rng)
        words = domain_words(t, rng, 2, settle_cap=6)
        if not words:
            continue
        checked += 1
        for w in words:
            g = build_output_graph(t, w, 8)
            for x, i, side in g.nodes:
                if side == IN:
                    assert in_out_value(g, x, i) == values_after(t, w, i)[x]
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, elapsed


def test_c11_lookaround_pipeline_is_sound_and_aperiodic():
    t0 = time.perf_counter()
    t = mirror_twowst()
    s = twowst_to_sst_sf(t)
    e = eliminate_lookaround(s)
    for w in mirror_corpus():
        assert pipeline_output(e, s, w, 200) == run_2wst(t, w, 200), w
    assert is_aperiodic_sst(e) == (True, None)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, elapsed


def mirror_formula_meaning(w, key, x, y):
    """What each formula of mirror_fot says, read off the separator
    positions, which all lie in the prefix of a corpus word."""
    seps = [i + 1 for i, a in enumerate(w.prefix) if a == "#"]
    reach = any(s > x for s in seps)
    letter = w.letter_at(x)
    if key == "dom":
        return "#" not in w.period
    kind, a, b = key
    if kind == "label":
        if a in (1, 2):
            return letter == b and letter != "#" and reach
        return letter == b and (letter == "#" or not reach)
    btw = any(min(x, y) < s < max(x, y) for s in seps)
    xsep, ysep = letter == "#", w.letter_at(y) == "#"
    return {
        (1, 1): x < y,
        (3, 3): x < y,
        (2, 2): (x < y) if btw else (y < x),
        (1, 3): ysep and x < y,
        (2, 3): ysep and x < y,
        (3, 1): xsep and x < y,
        (3, 2): xsep and x < y,
        (1, 2): x < y and btw,
        (2, 1): (x < y and btw) or (not btw and y <= x),
    }[(a, b)]


def test_c12_logical_formulas_evaluate_stably_on_the_corpus():
    t0 = time.perf_counter()
    f = mirror_fot()
    corpus = mirror_corpus()
    wrong = []
    for w in corpus:
        cells = [("dom", f.domain, {})]
        cells += [(("label",) + key, phi, {"x": x})
                  for key, phi in f.labels.items() for x in range(1, 5)]
        cells += [(("order",) + key, phi, {"x": x, "y": y})
                  for key, phi in f.order.items() for x in range(1, 5) for y in range(1, 5)]
        for key, phi, env in cells:
            want = mirror_formula_meaning(w, key, env.get("x", 1), env.get("y", 1))
            if evaluate(phi, w, env) != want:
                wrong.append((key, env, w))
    assert wrong == []
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, elapsed
