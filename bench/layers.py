"""Span and counter recorder for the traced benchmark run.

The package is treated as a black box: each layer is measured by
wrapping a public function where its callers look it up (a module
global, a method or a cached property on a class), only while a traced
iteration runs. Untraced iterations run the unwrapped package.

Three kinds of wrapper:

* ``span``: a timed call recorded as a span (name, start, end, parent).
* ``agg``: a timed call kept only as a call count and summed time. Used
  for call sites hit hundreds of thousands of times.
* ``count``: a call count, or a summed measure of each result.

A layer's self time is its duration minus the time of the wrapped calls
nested inside it, so the self times of one iteration add up to the time
spent inside wrapped calls.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter

# (kind, layer, callee as "module:attr[.attr]"); one layer may be wrapped
# at several call sites
LAYERS = (
    ("span", "instance.load", "pareto_cat:load_instance"),
    ("span", "instance.build", "pareto_cat.instance:build_instance"),
    ("span", "instance.validate", "pareto_cat.instance:validate_instance"),
    ("span", "rescat.validate_category", "pareto_cat.instance:validate_category"),
    ("span", "valuation.validate_maps", "pareto_cat.valuation:ValuationSystem.validate_maps"),
    ("span", "valuation.image_tables", "pareto_cat.valuation:ValuationSystem.image_tables"),
    ("span", "valuation.admissible", "pareto_cat.valuation:ValuationSystem.admissible_flags"),
    ("span", "valuation.admissible", "pareto_cat:prime_admissibility"),
    ("span", "valuation.class_vectors",
     "pareto_cat.valuation:ValuationSystem.image_class_vectors"),
    ("span", "valuation.pareto_frontier", "pareto_cat:pareto_frontier"),
    ("span", "valuation.pareto_frontier", "pareto_cat.swarm:pareto_frontier"),
    ("span", "valuation.minorization_mass", "pareto_cat:minorization_mass"),
    ("span", "valuation.minorization_mass", "pareto_cat.particle:minorization_mass"),
    ("span", "particle.run_particle", "pareto_cat:run_particle"),
    ("span", "particle.evolve_coefficients", "pareto_cat.particle:evolve_coefficients"),
    ("span", "valuation.longest_strict_chains", "pareto_cat.particle:longest_strict_chains"),
    ("span", "valuation.longest_strict_chains", "pareto_cat.swarm:longest_strict_chains"),
    ("span", "swarm.run", "pareto_cat:run_swarm"),
    ("agg", "particle.sample_admissible", "pareto_cat.particle:sample_admissible"),
    ("agg", "particle.sample_admissible", "pareto_cat.swarm:sample_admissible"),
    ("agg", "valuation.minorizes", "pareto_cat.valuation:minorizes"),
    ("agg", "valuation.minorizes", "pareto_cat.particle:minorizes"),
    ("agg", "valuation.minorizes", "pareto_cat.swarm:minorizes"),
    ("agg", "scale.interleaving_distance", "pareto_cat.swarm:interleaving_distance"),
    ("count", "summing.evaluate", "pareto_cat.valuation:evaluate"),
    ("count", "summing.tuple_rank", "pareto_cat.valuation:tuple_rank"),
    ("count", "summing.tuple_unrank", "pareto_cat.valuation:tuple_unrank"),
    ("count", "instance.scaled_image", "pareto_cat.instance:Instance.scaled_image"),
    ("count", "scale.scale_objects_built", "pareto_cat.scale:ScaleObject.__init__"),
    ("count", "swarm.certify", "pareto_cat.swarm:certify_neighborhood"),
    ("count", "valuation.improving_set_size", "pareto_cat.valuation:strict_minorization_set"),
)

# run_swarm scores its flags against the exact oracle after the search:
# its own call to pareto_frontier opens this phase, which stays open
# (covering certify_neighborhood and the recall scan) until run_swarm returns
ORACLE_PHASE = ("swarm.run", "swarm.oracle")


class Recorder:
    """Open frames on a stack; finished spans, self times and counts in memory."""

    def __init__(self):
        self.stack: list = []   # [name, start, child time, span index or None]
        self.spans: list = []   # [name, start, end, parent span index]
        self.self_s: dict = defaultdict(float)
        self.incl_s: dict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def push(self, name: str, span: bool) -> int:
        t = perf_counter()
        idx = None
        if span:
            parent = next((f[3] for f in reversed(self.stack) if f[3] is not None), None)
            idx = len(self.spans)
            self.spans.append([name, t, None, parent])
        self.stack.append([name, t, 0.0, idx])
        return len(self.stack)

    def pop_to(self, depth: int) -> None:
        """Close every frame from the top down to ``depth`` frames deep
        (inclusive), all at the same instant."""
        t = perf_counter()
        while len(self.stack) >= depth:
            name, start, child, idx = self.stack.pop()
            d = t - start
            self.self_s[name] += d - child
            self.incl_s[name] += d
            self.calls[name] += 1
            if idx is not None:
                self.spans[idx][2] = t
            if self.stack:
                self.stack[-1][2] += d

    def timed(self, name: str, fn, span: bool):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "valuation.pareto_frontier" and self.stack \
                    and self.stack[-1][0] == ORACLE_PHASE[0]:
                self.push(ORACLE_PHASE[1], span=True)
            depth = self.push(name, span)
            try:
                return fn(*args, **kwargs)
            finally:
                self.pop_to(depth)
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts
        if name == "valuation.improving_set_size":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                counts[name] += len(out)
                return out
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        return wrapper

    def sampling(self, fn):
        """Timed sample_admissible that also reads the attempt count the
        caller keeps in its ``_counter`` list."""
        timed = self.timed("particle.sample_admissible", fn, span=False)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counter = kwargs.get("_counter", args[4] if len(args) > 4 else None)
            before = counter[0] if isinstance(counter, list) else None
            out = timed(*args, **kwargs)
            counts["particle.sampling_attempts"] += (
                counter[0] - before if before is not None else 1)
            return out
        return wrapper


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


def install(rec: Recorder) -> tuple:
    """Wrap every layer for ``rec``. Returns ``(undo, missing)``: call
    ``undo()`` to restore the package; ``missing`` lists callees that no
    longer exist, whose layers then read zero."""
    saved, missing = [], []
    for kind, name, target in LAYERS:
        try:
            owner, attr = _resolve(target)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            missing.append(target)
            continue
        cached = isinstance(original, functools.cached_property)
        fn = original.func if cached else original
        if name == "particle.sample_admissible":
            wrapped = rec.sampling(fn)
        elif kind == "count":
            wrapped = rec.counted(name, fn)
        else:
            wrapped = rec.timed(name, fn, span=(kind == "span"))
        if cached:
            wrapped = functools.cached_property(wrapped)
            wrapped.__set_name__(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def undo() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo, missing
