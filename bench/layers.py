"""Traced run: time the calls into each diffdim layer from outside it.

Tracer.install rebinds the public functions named in SPANS, in the module
namespaces through which diffdim's own code looks them up, to wrappers that
add each call's duration to a per-span total and count the work the result
shows.  Nothing inside diffdim changes; a fresh process imports it anew, so
the rebinding ends with the run.
"""

from __future__ import annotations

import functools
import time

# (span, module holding the name the callers look up, attribute)
SPANS = (
    ("cli.run", "diffdim.cli", "run"),
    ("systemfile.parse", "diffdim.cli", "parse_system"),
    ("compare.compare_ideals", "diffdim.cli", "compare_ideals"),
    ("compare.containment", "diffdim.compare", "containment_check"),
    ("compare.omega", "diffdim.compare", "omega"),
    ("dimension.omega", "diffdim.dimension", "omega"),
    ("dimension.janet", "diffdim.dimension", "omega_janet"),
    ("dimension.incl_excl", "diffdim.dimension", "omega_incl_excl"),
    ("chains.validate", "diffdim.chains", "validate"),
    ("chains.delta", "diffdim.chains", "delta_polynomial"),
    ("chains.reduce", "diffdim.chains", "full_pseudo_reduce"),
    ("diffpoly.derive", "diffdim.diffpoly", "DiffPoly.derive_multi"),
)


class Tracer:
    """Per-span busy time and call counts, plus work counters."""

    def __init__(self):
        self.seconds: dict[str, float] = {name: 0.0 for name, _, _ in SPANS}
        self.calls: dict[str, int] = {name: 0 for name, _, _ in SPANS}
        self.counts = {
            "janet_cones": 0,
            "generators": 0,
            "obstruction_pairs": 0,
            "reduction_steps": 0,
        }

    def reset(self) -> None:
        """Zero every total in place; the installed wrappers hold these dicts."""
        for table in (self.seconds, self.calls, self.counts):
            for key in table:
                table[key] = 0

    def _observe(self, span: str, result, args) -> None:
        if span == "dimension.janet":
            self.counts["janet_cones"] += len(result.janet_cones)
            self.counts["generators"] += sum(len(g) for g in args[0].generators)
        elif span == "chains.delta" and result is not None:
            self.counts["obstruction_pairs"] += 1
        elif span == "chains.reduce":
            self.counts["reduction_steps"] += sum(e for _, e in result.multipliers)

    def _wrap(self, span: str, fn):
        seconds, calls, observe = self.seconds, self.calls, self._observe
        clock = time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            seconds[span] += clock() - start
            calls[span] += 1
            observe(span, result, args)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Rebind every span's function in the given {module name: module}."""
        for span, module_name, attr in SPANS:
            owner = modules[module_name]
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, name, self._wrap(span, getattr(owner, name)))
