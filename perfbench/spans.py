"""Spans and exact counters recorded around qtperm's public functions.

A traced run replaces each wrapped function at every binding a ``qtperm``
module holds. Several modules import functions by name (``cli`` imports
``analyze`` and ``sweep``, ``verifier`` imports ``quasi_verdict``,
``constructions`` imports ``build_chain``), so patching only the defining
module would silently drop the spans of calls made through those names.

Spans stay in memory as ``[name, start, end, parent]`` records until the run
ends; self time is computed from that tree afterwards.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


def self_times(spans) -> dict[str, float]:
    """Per span name, the summed duration minus the time child spans cover.

    ``spans`` is a sequence of ``(name, start, end, parent)`` where
    ``parent`` is the index of the enclosing span or ``None``. Children may
    overlap one another and may reach outside their parent; only the union
    of their intervals clipped to the parent's interval is subtracted.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        totals[name] += (end - start) - covered
    return dict(totals)


def _qtperm_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "qtperm" or name.startswith("qtperm."))]


class Tracer:
    """Installs wrappers on entry to ``with`` and restores the originals on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapper factories -------------------------------------------------

    def _span(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, clock(), None, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result, args)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_yielded(self, name, fn):
        counts = self.counts

        def drain(iterator):
            for item in iterator:
                counts[name] += 1
                yield item

        def wrapper(*args, **kwargs):
            # call eagerly, as the original does; only the iteration is lazy
            return drain(fn(*args, **kwargs))

        return wrapper

    def _chain_lookup(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            builds = counts["group.build_chain.calls"]
            counts["group.chain.calls"] += 1
            result = fn(*args, **kwargs)
            if counts["group.build_chain.calls"] == builds:
                counts["group.chain.hits"] += 1
            return result

        return wrapper

    # -- result hooks ------------------------------------------------------

    def _on_chain(self, chain, args):
        self.counts["group.build_chain.calls"] += 1
        self.counts["group.build_chain.degree_sum"] += chain.degree
        self.counts["group.build_chain.transversal_points"] += sum(
            chain.transversal_sizes())

    def _on_pair_profile(self, classes, args):
        self.counts["analysis.pair_class_profile.pairs"] += sum(
            c.size for c in classes)

    def _on_sweep(self, result, args):
        self.counts["verifier.items.tested"] += result.tested
        self.counts["verifier.items.skipped"] += result.skipped

    def _on_parse(self, gfile, args):
        self.counts["genfile.bytes_parsed"] += len(args[0].encode("utf-8"))

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        """Rebind every module-level name in qtperm that holds ``original``."""
        for module in _qtperm_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _replace_method(self, cls, attr, wrapper):
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self):
        from qtperm import (analysis, cli, constructions, genfile, group,
                            perm, report, verifier)

        P = perm.Permutation
        for attr, name in (("__mul__", "perm.mul.calls"),
                           ("inverse", "perm.inverse.calls"),
                           ("__init__", "perm.init.calls"),
                           ("is_identity", "perm.is_identity.calls")):
            self._replace_method(P, attr, self._count(name, P.__dict__[attr]))

        G = group.PermGroup
        self._replace_method(G, "chain", self._chain_lookup(G.chain))
        self._replace_method(G, "point_stabilizer", self._count(
            "group.point_stabilizer.calls", G.point_stabilizer))
        self._replace_method(G, "elements", self._count_yielded(
            "group.elements.yielded", G.elements))

        hooks = {
            "build_chain": self._on_chain,
            "pair_class_profile": self._on_pair_profile,
            "sweep": self._on_sweep,
            "parse_generators": self._on_parse,
        }
        spanned = {
            group: ("build_chain",),
            analysis: ("analyze", "quasi_verdict", "pair_class_profile",
                       "is_primitive", "is_faithful_on", "orbits"),
            constructions: ("disjoint_sum", "coset_action", "regular_action",
                            "action_on_k_subsets",
                            "dihedral_2q_plus_2_subgroup",
                            "subgroup_normalizer"),
            verifier: ("sweep", "default_catalog", "step4_check"),
            genfile: ("parse_generators", "format_generators",
                      "group_from_file"),
            report: ("action_report_document", "sweep_document"),
            cli: ("main",),
        }
        for module, attrs in spanned.items():
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr in attrs:
                original = getattr(module, attr)
                self._replace_everywhere(original, self._span(
                    f"{layer}.{attr}", original, hooks.get(attr)))
        self._replace_everywhere(verifier.lemma_monitor, self._count(
            "verifier.lemma_monitor.calls", verifier.lemma_monitor))

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    # -- results -----------------------------------------------------------

    def span_calls(self) -> dict[str, int]:
        calls: dict[str, int] = defaultdict(int)
        for name, *_ in self.spans:
            calls[name] += 1
        return dict(calls)

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric of the benchmark, by name."""
        counts = self.counts
        calls = self.span_calls()
        self_s = self_times(self.spans)
        out: dict[str, float] = {}
        for name in ("perm.mul.calls", "perm.inverse.calls",
                     "perm.init.calls", "perm.is_identity.calls",
                     "group.chain.calls", "group.point_stabilizer.calls",
                     "group.elements.yielded",
                     "group.build_chain.degree_sum",
                     "group.build_chain.transversal_points",
                     "analysis.pair_class_profile.pairs",
                     "verifier.items.tested", "verifier.items.skipped",
                     "verifier.lemma_monitor.calls", "genfile.bytes_parsed",
                     "report.json_bytes"):
            out[name] = counts[name]
        for span in ("group.build_chain", "analysis.pair_class_profile",
                     "analysis.quasi_verdict", "analysis.analyze",
                     "constructions.disjoint_sum",
                     "constructions.coset_action"):
            out[f"{span}.calls"] = calls.get(span, 0)
        for span in ("group.build_chain", "analysis.pair_class_profile",
                     "analysis.quasi_verdict", "analysis.analyze",
                     "analysis.is_primitive", "analysis.is_faithful_on",
                     "analysis.orbits", "constructions.disjoint_sum",
                     "constructions.coset_action",
                     "constructions.regular_action",
                     "constructions.action_on_k_subsets",
                     "constructions.dihedral_2q_plus_2_subgroup",
                     "constructions.subgroup_normalizer", "verifier.sweep",
                     "verifier.default_catalog",
                     "genfile.parse_generators", "genfile.format_generators",
                     "report.action_report_document",
                     "report.sweep_document", "cli.main"):
            out[f"{span}.self_s"] = self_s.get(span, 0.0)
        chain_calls = counts["group.chain.calls"]
        out["group.chain.hit_ratio"] = (
            counts["group.chain.hits"] / chain_calls if chain_calls else 0.0)
        swept = counts["verifier.items.tested"] + counts["verifier.items.skipped"]
        out["verifier.tested_ratio"] = (
            counts["verifier.items.tested"] / swept if swept else 0.0)
        return out
