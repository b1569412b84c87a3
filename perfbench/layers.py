"""Which package functions the traced run wraps, and the per-layer metrics
derived from their spans.

Counts come from return values (elements of a returned monoid, letters of
a returned output, states of a returned machine) or from the exception a
call raised, never from the package's internals.
"""

import statistics

CLI_VERBS = ("compile", "eliminate-la", "check-1bounded", "check-aperiodic", "monoid",
             "compare")
RUNNERS = ("sst.run_output", "twowst.run_2wst", "fot.run_fot",
           "constructions.run_output_sst_sf", "constructions.pipeline_output")


def _none(args, kwargs, result, exc):
    return {}


def _call(args, kwargs, result, exc):
    return {"calls": 1}


def _monoid(args, kwargs, result, exc):
    if exc is not None:
        return {}
    return {"elements": len(result), "products": len(result) * len(args[0].alphabet)}


def _flow_monoid(args, kwargs, result, exc):
    counts = _monoid(args, kwargs, result, exc)
    counts["width"] = len(args[0].states) * len(args[0].variables)
    return counts


def _letters(args, kwargs, result, exc):
    if exc is not None:
        return {"window_failures": int("window exhausted" in str(exc))}
    return {"letters": len(result)}


def _states(args, kwargs, result, exc):
    return {} if exc is not None else {"states": len(result.states)}


def _eliminated(args, kwargs, result, exc):
    if exc is not None:
        return {}
    return {"useful_configs": len(result._elimination["configs"]),
            "subset_states": len(result.states), "variables": len(result.variables)}


def _parsed_bytes(args, kwargs, result, exc):
    return {"bytes": len(args[0].encode("utf-8"))}


def _printed_bytes(args, kwargs, result, exc):
    return {} if exc is not None else {"bytes": len(result.encode("utf-8"))}


def _graph(args, kwargs, result, exc):
    if exc is not None:
        return {}
    return {"nodes": len(result.nodes),
            "edges": sum(len(row) for row in result.edges.values())}


def specs(M):
    """(module, attribute, span name, count function) for Tracer.install."""
    return [
        (M.muller, "dma_monoid", "muller.dma_monoid", _monoid),
        (M.muller, "aperiodicity_witness", "muller.aperiodicity_witness", _none),
        (M.sst, "sst_monoid", "sst.sst_monoid", _flow_monoid),
        (M.sst, "is_1_bounded", "sst.is_1_bounded", _none),
        (M.twowst, "twowst_monoid", "twowst.twowst_monoid", _monoid),
        (M.constructions, "twowst_to_sst_sf", "constructions.twowst_to_sst_sf", _states),
        (M.constructions, "eliminate_lookaround", "constructions.eliminate_lookaround",
         _eliminated),
        (M.constructions, "compare_outputs", "constructions.compare_outputs", _none),
        (M.formats, "parse_machine_text", "formats.parse_machine_text", _parsed_bytes),
        (M.formats, "parse_corpus_text", "formats.parse_corpus_text", _none),
        (M.formats, "print_machine", "formats.print_machine", _printed_bytes),
        (M.sst, "run_output", "sst.run_output", _letters),
        (M.twowst, "run_2wst", "twowst.run_2wst", _letters),
        (M.constructions, "run_output_sst_sf", "constructions.run_output_sst_sf", _letters),
        (M.constructions, "pipeline_output", "constructions.pipeline_output", _letters),
        (M.fot, "run_fot", "fot.run_fot", _letters),
        (M.fot, "bulk_evaluate", "fot.bulk_evaluate", _call),
        (M.fologic, "evaluate", "fologic.evaluate", _call),
        (M.outputgraph, "build_output_graph", "outputgraph.build_output_graph", _graph),
        (M.sst, "path_conditions", "sst.path_conditions", _call),
    ]


def _aggregate(spans):
    dur, self_time, counts, width = {}, {}, {}, 0
    for s in spans:
        dur[s.name] = dur.get(s.name, 0.0) + s.duration
        self_time[s.name] = self_time.get(s.name, 0.0) + s.self_time
        c = counts.setdefault(s.name, {})
        for key, value in (s.counts or {}).items():
            if key == "width":
                width = max(width, value)
            else:
                c[key] = c.get(key, 0) + value
    return dur, self_time, counts, width


def round_metrics(spans):
    """Per-layer metrics of one traced round."""
    dur, self_time, counts, width = _aggregate(spans)

    def d(name):
        return dur.get(name, 0.0)

    def c(name, key):
        return counts.get(name, {}).get(key, 0)

    run_time = sum(d(r) for r in RUNNERS)
    letters = sum(c(r, "letters") for r in RUNNERS)
    out = {
        "muller.monoid_s": d("muller.dma_monoid"),
        "muller.monoid_elements": c("muller.dma_monoid", "elements"),
        "muller.products": c("muller.dma_monoid", "products"),
        "muller.witness_s": d("muller.aperiodicity_witness"),
        "sst.flow_monoid_s": d("sst.sst_monoid"),
        "sst.flow_monoid_elements": c("sst.sst_monoid", "elements"),
        "sst.flow_products": c("sst.sst_monoid", "products"),
        "sst.flow_width_max": width,
        "sst.one_bounded_s": self_time.get("sst.is_1_bounded", 0.0),
        "twowst.monoid_s": d("twowst.twowst_monoid"),
        "twowst.monoid_elements": c("twowst.twowst_monoid", "elements"),
        "constructions.to_sst_sf_s": d("constructions.twowst_to_sst_sf"),
        "constructions.sst_sf_states": c("constructions.twowst_to_sst_sf", "states"),
        "constructions.eliminate_s": d("constructions.eliminate_lookaround"),
        "constructions.useful_configs": c("constructions.eliminate_lookaround",
                                          "useful_configs"),
        "constructions.subset_states": c("constructions.eliminate_lookaround",
                                         "subset_states"),
        "constructions.eliminated_variables": c("constructions.eliminate_lookaround",
                                                "variables"),
        "constructions.compare_s": d("constructions.compare_outputs"),
        "formats.parse_s": d("formats.parse_machine_text") + d("formats.parse_corpus_text"),
        "formats.print_s": d("formats.print_machine"),
        "formats.machine_bytes": c("formats.parse_machine_text", "bytes")
        + c("formats.print_machine", "bytes"),
    }
    for verb in CLI_VERBS:
        out["cli.%s_s" % verb] = d("op:cli." + verb)
    out.update({
        "sst.run_s": d("sst.run_output"),
        "sst.run_letters": c("sst.run_output", "letters"),
        "twowst.run_s": d("twowst.run_2wst"),
        "twowst.run_letters": c("twowst.run_2wst", "letters"),
        "constructions.run_sst_sf_s": d("constructions.run_output_sst_sf"),
        "constructions.pipeline_run_s": d("constructions.pipeline_output"),
        "fot.run_s": d("fot.run_fot"),
        "fot.run_letters": c("fot.run_fot", "letters"),
        "fot.bulk_evaluate_s": d("fot.bulk_evaluate"),
        "fot.bulk_evaluate_calls": c("fot.bulk_evaluate", "calls"),
        "fot.window_failures": c("fot.run_fot", "window_failures"),
        "fologic.evaluate_s": d("fologic.evaluate"),
        "fologic.evaluate_calls": c("fologic.evaluate", "calls"),
        "outputgraph.build_s": d("outputgraph.build_output_graph"),
        "outputgraph.nodes": c("outputgraph.build_output_graph", "nodes"),
        "outputgraph.edges": c("outputgraph.build_output_graph", "edges"),
        "sst.path_conditions_s": d("sst.path_conditions"),
        "sst.path_conditions_calls": c("sst.path_conditions", "calls"),
        "letters_per_s": letters / run_time if run_time else 0.0,
    })
    return out


def median_metrics(rounds):
    """Median of each metric over rounds (counts are equal in every round)."""
    return {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
