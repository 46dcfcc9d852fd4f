"""Traced runs: wrap hog's public callables, layer by layer, from outside.

`Tracer.install(hog)` replaces each traced function or method with a
wrapper that counts the call and times it, wherever the name is bound:
the defining module, the `hog` package and the modules that import it
(`hog.cli` holds its own `enumerate_equilibria`, `hog.engine` its own
`GameContext`).  `uninstall()` puts the originals back.

Every traced call keeps a frame on a stack, so a call's self time is its
duration minus the time of the traced calls made inside it.  Calls at layer
boundaries that happen a handful of times per request are also kept as
spans (name, start, end, parent span, request id) and written out when the
run ends; hot calls (membership tests, selection calls, ...) are only
counted and timed, so a traced run's memory does not grow with its length.
"""

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

#: (module, attribute, traced name, keep spans) for module-level functions
FUNCTIONS = (
    ("cli", "main", "cli.main", True),
    ("dsl", "parse_game", "dsl.parse", True),
    ("dsl", "parse_file", "dsl.parse_file", True),
    ("engine", "classical_game", "engine.classical_game", True),
    ("engine", "enumerate_equilibria", "engine.enumerate_equilibria", True),
    ("engine", "evaluate_profile", "engine.evaluate_profile", False),
    ("engine", "unilateral_context", "engine.unilateral_context", False),
    ("engine", "brute_force_nash", "engine.nash", True),
    ("core", "is_closed", "core.is_closed", True),
    ("core", "attains", "core.attains", True),
    ("core", "check_shape", "core.check_shape", True),
)

#: (module, class, method, traced name, keep spans)
METHODS = (
    ("engine", "Game", "__post_init__", "engine.game_init", True),
    ("engine", "OutcomeFunction", "__call__", "engine.outcome_fn", False),
    ("core", "GameContext", "__post_init__", "core.context", False),
    ("core", "AtomOutcomes", "__contains__", "core.membership.atom", False),
    ("core", "ProductOutcomes", "__contains__", "core.membership.product", False),
    ("core", "VectorOutcomes", "__contains__", "core.membership.vector", False),
    ("core", "AtomOutcomes", "rank", "core.rank", False),
    ("core", "ProductOutcomes", "rank", "core.rank", False),
    ("core", "VectorOutcomes", "rank", "core.rank", False),
    ("core", "PreferenceOrder", "position", "core.position", False),
)


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)  # inclusive; outermost call of a name only
        self.self_time = defaultdict(float)
        self.parse_bytes = 0
        self.spans = []  # [id, name, start, end, parent id, request id]
        self.request = None
        self.contexts_built = 0
        self.contexts_seen = defaultdict(set)  # (request, player) -> tables
        self._frames = []  # child time of each open traced call
        self._open = Counter()  # open calls per name, to spot recursion
        self._span_stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name, span):
        self._frames.append(0.0)
        self._open[name] += 1
        if span:
            parent = self._span_stack[-1][0] if self._span_stack else None
            record = [len(self.spans), name, perf_counter(), None, parent, self.request]
            self.spans.append(record)
            self._span_stack.append(record)
        return perf_counter()

    def _exit(self, name, span, start, count=True):
        end = perf_counter()
        took = end - start
        child = self._frames.pop()
        self._open[name] -= 1
        self.calls[name] += count
        self.self_time[name] += took - child
        if not self._open[name]:
            self.total[name] += took
        if self._frames:
            self._frames[-1] += took
        if span:
            self._span_stack.pop()[3] = end

    def begin_request(self, request):
        self.request = request
        self._enter("bench.request", True)
        return perf_counter()

    def end_request(self, start):
        self._exit("bench.request", True, start)
        self.request = None

    def wrap(self, fn, name, span):
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = enter(name, span)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(name, span, start)

        return traced

    def wrap_generator(self, fn, name):
        """Time a generator by the steps it takes, not by its lifetime."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            it = fn(*args, **kwargs)
            while True:
                start = self._enter(name, False)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit(name, False, start, count=False)
                yield item

        return traced

    # -- patching ----------------------------------------------------------

    def _patch_everywhere(self, hog, original, replacement):
        for module in (hog, hog.core, hog.engine, hog.dsl, hog.cli, hog.builtins):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def install(self, hog):
        """Patch `hog`; `hog.cli` must already be imported."""
        modules = {"core": hog.core, "engine": hog.engine, "dsl": hog.dsl, "cli": hog.cli}
        for mod, attr, name, span in FUNCTIONS:
            fn = getattr(modules[mod], attr)
            traced = self.wrap(fn, name, span)
            if name == "dsl.parse":
                traced = self._counting_bytes(traced)
            elif name == "engine.unilateral_context":
                traced = self._recording_contexts(traced)
            self._patch_everywhere(hog, fn, traced)
        gen = hog.core.enumerate_contexts
        self._patch_everywhere(hog, gen, self.wrap_generator(gen, "core.enumerate_contexts"))
        for mod, cls_name, meth, name, span in METHODS:
            self._patch_method(getattr(modules[mod], cls_name), meth, name, span)
        core = hog.core
        for value in list(vars(core).values()):
            if (isinstance(value, type) and "__call__" in vars(value)
                    and value not in (core.SelectionFunction, core.Quantifier)):
                if issubclass(value, core.SelectionFunction):
                    self._patch_method(value, "__call__", "core.selection", False)
                elif issubclass(value, core.Quantifier):
                    self._patch_method(value, "__call__", "core.quantifier", False)

    def _patch_method(self, cls, meth, name, span):
        original = vars(cls)[meth]
        setattr(cls, meth, self.wrap(original, name, span))
        self._undo.append((cls, meth, original))

    def _counting_bytes(self, parse):
        @functools.wraps(parse)
        def traced(src, *args, **kwargs):
            self.parse_bytes += len(getattr(src, "text", src).encode("utf-8"))
            return parse(src, *args, **kwargs)

        return traced

    def _recording_contexts(self, uni):
        @functools.wraps(uni)
        def traced(game, profile, i):
            ctx = uni(game, profile, i)
            self.contexts_built += 1
            self.contexts_seen[(self.request, i)].add(ctx.table)
            return ctx

        return traced

    def uninstall(self):
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    # -- results -----------------------------------------------------------

    def layer_metrics(self, passes):
        """Per-pass counters and seconds for the per-layer metrics."""
        c, t, s = self.calls, self.total, self.self_time

        def count(name):
            n, rest = divmod(c[name], passes)
            if rest:
                raise RuntimeError(f"{name}: {c[name]} calls over {passes} passes")
            return n

        distinct = sum(len(v) for v in self.contexts_seen.values())
        per_player = max((len(v) for v in self.contexts_seen.values()), default=0)
        parse_s = t["dsl.parse"]
        return {
            "engine.outcome_fn.calls": count("engine.outcome_fn"),
            "engine.outcome_fn_s": t["engine.outcome_fn"] / passes,
            "engine.unilateral_context.calls": count("engine.unilateral_context"),
            "engine.unilateral_context.self_s": s["engine.unilateral_context"] / passes,
            "engine.context_reuse": distinct / self.contexts_built if self.contexts_built else 0.0,
            "engine.context_reuse.base": self.contexts_built // passes,
            "engine.context_distinct_per_player.max": per_player,
            "engine.game_init.calls": count("engine.game_init"),
            "engine.game_init_s": t["engine.game_init"] / passes,
            "core.check_shape_s": t["core.check_shape"] / passes,
            "core.context.calls": count("core.context"),
            "core.context.self_s": s["core.context"] / passes,
            "core.membership.atom.calls": count("core.membership.atom"),
            "core.membership.product.calls": count("core.membership.product"),
            "core.membership.vector.calls": count("core.membership.vector"),
            "core.rank.calls": count("core.rank"),
            "core.selection.calls": count("core.selection"),
            "core.selection.self_s": s["core.selection"] / passes,
            "core.quantifier.calls": count("core.quantifier"),
            "core.quantifier.self_s": s["core.quantifier"] / passes,
            "core.position.calls": count("core.position"),
            "core.enumerate_contexts_s": t["core.enumerate_contexts"] / passes,
            "core.is_closed_s": t["core.is_closed"] / passes,
            "core.attains_s": t["core.attains"] / passes,
            "dsl.parse.calls": count("dsl.parse"),
            "dsl.parse_s": parse_s / passes,
            "dsl.parse_bytes_per_s": self.parse_bytes / parse_s if parse_s else 0.0,
            "cli.main.self_s": s["cli.main"] / passes,
        }

    def dump(self, path):
        doc = {
            "span_fields": ["id", "name", "start_s", "end_s", "parent", "request"],
            "spans": self.spans,
            "calls": dict(self.calls),
            "total_s": dict(self.total),
            "self_s": dict(self.self_time),
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
