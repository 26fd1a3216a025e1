"""Timing proxies on cablekit's public entry points, installed from outside.

The package is not edited.  :func:`install` replaces each entry point
listed in :data:`ENTRY_POINTS` by a proxy that records a span while a
request is active:

* class methods are patched on the class, so every caller sees the proxy;
* module functions are patched in every ``cablekit`` namespace that holds
  them (the defining module and each module that imported the name), so
  calls from one module into another nest under the caller's span.

A span is ``[name, layer, start, end, parent, request, child_s, attrs]``;
``parent`` indexes the enclosing span (-1 at the top of a request) and
``child_s`` is the time the span's direct children cover, so a span's self
time is ``end - start - child_s``.  Spans stay in memory until the pass
ends and :meth:`Tracer.write` puts them on disk.

Entry points that a later version of the package no longer has are
skipped, so the layer totals keep working while the code shrinks.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# layer -> (module functions, {class name: methods}); the layer is the module
ENTRY_POINTS = {
    "slopes": (
        ["farey_neighbors", "farey_shortest_path", "eval_cont_frac",
         "neg_cont_frac", "exceptional_slopes", "mediant_farey_graph",
         "bfs_interval_path_length"],
        {"Slope": ["parse"], "NegContinuedFraction": ["canonical"]},
    ),
    "lens": (
        ["is_trivial", "is_rational_unknot", "euler_characteristic",
         "boundary_count", "homological_order", "boundary_wrap"],
        {},
    ),
    "openbook": (
        ["reframe", "normalize_to_window", "validate", "positive_stabilize"],
        {"RationalOpenBook": ["from_json", "to_json", "with_monodromy", "with_metadata"],
         "BindingComponent": ["from_json", "to_json"]},
    ),
    "classify": (
        ["cable_sign", "hopf_delta", "classify_cable", "lutz_cable_description_for",
         "cabled_page", "cabled_page_assembled", "stabilization_count_pq_from_p1",
         "resolve", "surgery_admissible", "induced_open_book_from_surgery"],
        {"CableCoefficients": ["parse", "validate"], "CableVerdict": ["to_json"]},
    ),
    "words": (
        [],
        {"TwistWord": ["of", "twists", "append", "compose", "power", "inverse",
                       "count", "is_positive", "from_json", "to_json"]},
    ),
    "curves": (
        ["solve_integer_system", "extract_transvection_class",
         "words_equal_on_homology", "algebraic_length", "mod10_class",
         "chain_classes", "chain_model"],
        {"CurveSystem": ["word_matrix", "check", "register_expansion"]},
    ),
    "braids": (
        ["garside_half_twist", "braid_Bp", "r22_braid",
         "lift_through_double_cover", "positive_destabilization_certificate"],
        {"BraidWord": ["from_pairs", "expand_bands", "permutation",
                       "closure_component_count", "inverse", "power", "__mul__"]},
    ),
    "monodromy": (
        ["branch_point_count", "p1_layout", "cable_p1_system", "garside_block",
         "rho_p1_rotation", "lift_to_nodule", "monodromy_p1_connected",
         "monodromy_p1_disconnected", "sigma22_cover_system",
         "monodromy_22_connected", "monodromy_pq", "negative_cable_word",
         "resolution_word_r0", "stein_obstruction_Lppm1", "compose_cobordism_word"],
        {"ObstructionReport": ["summary", "to_json"]},
    ),
    "rewrite": (
        ["replay"],
        {"RelationRegistry": ["register", "register_conjugation", "get"],
         "RewriteScript": ["from_json", "to_json"]},
    ),
    "library": (
        ["sigma22_script_system", "sigma22_registry", "stabilize_21_to_22_script",
         "stabilization_bundle", "garside_square_bundle", "resolved_system",
         "resolved_registry", "negative_cable_refactor_script",
         "negative_cable_bundle", "genlantern_derivation_bundle",
         "lantern_genus3_model", "shipped_scripts"],
        {"ScriptBundle": ["replay"]},
    ),
    "cli": (
        ["main", "build_parser", "cmd_slopes", "cmd_torus_knot", "cmd_classify",
         "cmd_cable_page", "cmd_resolve", "cmd_surgery", "cmd_monodromy",
         "cmd_obstruction", "cmd_verify_word", "cmd_replay_script",
         "cmd_compose_cobordism"],
        {},
    ),
}

LAYERS = tuple(ENTRY_POINTS)

# The per-layer metrics of a traced run, with units.  Counts and seconds are
# per traced pass; self time is a span's duration minus its children's.
PER_LAYER = {
    "cli.import_s": "s", "cli.calls": "count", "cli.self_s": "s",
    "slopes.calls": "count", "slopes.self_s": "s",
    "lens.calls": "count", "lens.self_s": "s", "lens.criterion2_us": "us",
    "openbook.calls": "count", "openbook.self_s": "s",
    "classify.calls": "count", "classify.self_s": "s", "classify.criterion1_us": "us",
    "words.calls": "count", "words.self_s": "s", "words.letters_built": "count",
    "curves.calls": "count", "curves.self_s": "s",
    "curves.oracle_calls": "count", "curves.oracle_letters": "count",
    "curves.oracle_dim_max": "dim", "curves.oracle_self_s": "s",
    "curves.solve_self_s": "s", "curves.check_self_s": "s", "curves.expand_self_s": "s",
    "braids.calls": "count", "braids.self_s": "s",
    "monodromy.calls": "count", "monodromy.self_s": "s", "monodromy.system_build_s": "s",
    "rewrite.calls": "count", "rewrite.self_s": "s",
    "rewrite.replay_steps": "count", "rewrite.register_calls": "count",
    "library.calls": "count", "library.self_s": "s", "library.load_calls": "count",
    "trace.overhead_frac": "fraction",
}

ORACLE = "curves.CurveSystem.word_matrix"
SOLVE = "curves.solve_integer_system"
CHECK = "curves.CurveSystem.check"
EXPAND = "curves.algebraic_length"
SYSTEM_BUILDERS = ("monodromy.cable_p1_system", "monodromy.sigma22_cover_system")
REPLAY = "rewrite.replay"
REGISTER = "rewrite.RelationRegistry.register"
LOADERS = ("library.sigma22_script_system", "library.resolved_system")


def _oracle_attrs(args, kwargs):
    system, word = args[0], args[1] if len(args) > 1 else kwargs["word"]
    return {"letters": len(word), "dim": system.dim}


def _replay_attrs(args, kwargs):
    script = args[0] if args else kwargs["script"]
    return {"steps": len(script.steps)}


ATTRS = {ORACLE: _oracle_attrs, REPLAY: _replay_attrs}


class Tracer:
    """Spans of the calls into each layer, kept in memory for one pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = None
        self.letters_built = 0

    def proxy(self, layer: str, name: str, fn):
        tracer = self
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.request is None:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer.stack
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1,
                    tracer.request, 0.0, attrs(args, kwargs) if attrs else None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                span[3] = end
                stack.pop()
                if stack:
                    spans[stack[-1]][6] += end - start

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, _, start, end, parent, request, _, attrs in self.spans:
                rec = {"name": name, "start": start, "end": end,
                       "parent": parent, "request": request}
                if attrs:
                    rec.update(attrs)
                fh.write(json.dumps(rec) + "\n")


def install(tracer: Tracer) -> int:
    """Patch every entry point that exists; returns how many were patched."""
    namespaces = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == "cablekit" or n.startswith("cablekit."))]
    patched = 0
    for layer, (functions, classes) in ENTRY_POINTS.items():
        home = sys.modules.get(f"cablekit.{layer}")
        if home is None:
            continue
        for fname in functions:
            fn = getattr(home, fname, None)
            if not callable(fn):
                continue
            traced = tracer.proxy(layer, f"{layer}.{fname}", fn)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, attr, traced)
            patched += 1
        for cname, methods in classes.items():
            cls = getattr(home, cname, None)
            if cls is None:
                continue
            for mname in methods:
                raw = cls.__dict__.get(mname)
                name = f"{layer}.{cname}.{mname}"
                if isinstance(raw, staticmethod):
                    setattr(cls, mname, staticmethod(tracer.proxy(layer, name, raw.__func__)))
                elif isinstance(raw, classmethod):
                    setattr(cls, mname, classmethod(tracer.proxy(layer, name, raw.__func__)))
                elif callable(raw):
                    setattr(cls, mname, tracer.proxy(layer, name, raw))
                else:
                    continue
                patched += 1
    _count_letters(tracer)
    return patched


def _count_letters(tracer: Tracer) -> None:
    """Count the letters of every TwistWord built while a request is active."""
    words = sys.modules.get("cablekit.words")
    cls = getattr(words, "TwistWord", None)
    post_init = getattr(cls, "__post_init__", None)
    if post_init is None:
        return

    @functools.wraps(post_init)
    def counted(self):
        post_init(self)
        if tracer.request is not None:
            tracer.letters_built += len(self)

    cls.__post_init__ = counted


def summarize(tracer: Tracer) -> dict:
    """Per-layer totals of one traced pass (counts and seconds)."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    out = dict.fromkeys(PER_LAYER, 0.0)
    dim_max = 0
    for name, layer, start, end, parent, _, child_s, attrs in tracer.spans:
        own = end - start - child_s
        calls[layer] += 1
        self_s[layer] += own
        if name == ORACLE:
            out["curves.oracle_calls"] += 1
            out["curves.oracle_letters"] += attrs["letters"]
            out["curves.oracle_self_s"] += own
            dim_max = max(dim_max, attrs["dim"])
        elif name == SOLVE:
            out["curves.solve_self_s"] += own
        elif name == CHECK:
            out["curves.check_self_s"] += own
        elif name == EXPAND:
            out["curves.expand_self_s"] += own
        elif name in SYSTEM_BUILDERS:
            out["monodromy.system_build_s"] += end - start
        elif name == REPLAY:
            out["rewrite.replay_steps"] += attrs["steps"]
        elif name == REGISTER:
            out["rewrite.register_calls"] += 1
        elif name in LOADERS:
            out["library.load_calls"] += 1
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    out["curves.oracle_dim_max"] = dim_max
    out["words.letters_built"] = tracer.letters_built
    return out
