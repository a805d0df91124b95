"""Span tracer that wraps coverslide's layer functions from outside the package.

The tracer replaces each function named in ``TRACED`` by a wrapper
and rebinds every reference any ``coverslide`` module holds to the original
function object, so calls through by-name imports (``mover`` and ``cwcheck``
import ``orbit_rank_of_chain``, ``slides`` imports ``lift_word``) are traced
too.  Spans (name, start, end, parent, request id) are kept in flat arrays
and written out by ``dump``.  The wrappers are bound only inside
``Tracer.span``, so untraced requests and the benchmark's own correctness
checks run the original functions.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array
from contextlib import contextmanager
from functools import wraps
from pathlib import Path

# module -> functions wrapped in it.  ``cli._emit`` is the JSON writer.
TRACED = {
    "groups": ("builtin_group", "builtin_group_from_string", "from_mul_table",
               "group_from_json", "subgroup_generated"),
    "cover": ("build_cover", "standard_images", "lift_word", "petal_complement_components"),
    "homology": ("cycle_basis", "component_basis", "orbit_rank", "orbit_rank_of_chain",
                 "deck_action_matrix", "character", "chain_to_class"),
    "linalg": ("rank", "mat_vec"),
    "slides": ("lifted_action_formula", "lifted_action_oracle", "slide_increment"),
    "mover": ("move_vector", "find_pairing_edge", "find_slide_loop", "verify_certificate"),
    "cwcheck": ("verify_chevalley_weil", "isotypic_decomposition"),
    "cli": ("main", "_emit"),
}

# Per-layer metric stem -> the spans it sums.  A span nested inside another
# span of the same stem is not counted again.
STEMS = {
    "groups.build": ("groups.builtin_group", "groups.builtin_group_from_string",
                     "groups.from_mul_table", "groups.group_from_json"),
    "groups.subgroup": ("groups.subgroup_generated",),
    "cover.standard_images": ("cover.standard_images",),
    "cover.lift": ("cover.lift_word",),
    "cover.components": ("cover.petal_complement_components",),
    "homology.basis": ("homology.cycle_basis", "homology.component_basis"),
    "homology.orbit_rank": ("homology.orbit_rank", "homology.orbit_rank_of_chain"),
    "homology.deck_matrix": ("homology.deck_action_matrix",),
    "homology.character": ("homology.character",),
    "homology.chain_to_class": ("homology.chain_to_class",),
    "linalg.rank": ("linalg.rank",),
    "linalg.mat_vec": ("linalg.mat_vec",),
    "slides.formula": ("slides.lifted_action_formula",),
    "slides.oracle": ("slides.lifted_action_oracle",),
    "slides.increment": ("slides.slide_increment",),
    "mover.search": ("mover.find_slide_loop",),
    "mover.verify": ("mover.verify_certificate",),
    "mover.pairing": ("mover.find_pairing_edge",),
    "cwcheck.character": ("cwcheck.verify_chevalley_weil",),
    "cwcheck.isotypic": ("cwcheck.isotypic_decomposition",),
    "cli.serialize": ("cli._emit",),
}

LAYERS = tuple(TRACED)

# Per-layer metrics reported by ``layer_metrics``, with units.
PER_LAYER_UNITS = {
    "groups.build_s": "s", "groups.build_calls": "count",
    "groups.subgroup_calls": "count", "groups.subgroup_s": "s",
    "cover.standard_images_s": "s", "cover.standard_images_calls": "count",
    "cover.lift_calls": "count", "cover.lift_s": "s", "cover.components_s": "s",
    "homology.basis_s": "s", "homology.orbit_rank_calls": "count",
    "homology.orbit_rank_s": "s", "homology.deck_matrix_s": "s",
    "homology.character_s": "s", "homology.chain_to_class_s": "s",
    "linalg.rank_calls": "count", "linalg.rank_s": "s", "linalg.rank_cells": "count",
    "linalg.rank_density": "ratio", "linalg.mat_vec_calls": "count", "linalg.mat_vec_s": "s",
    "slides.formula_calls": "count", "slides.formula_s": "s", "slides.oracle_calls": "count",
    "slides.oracle_s": "s", "slides.increment_s": "s",
    "mover.search_calls": "count", "mover.search_s": "s", "mover.candidates": "count",
    "mover.search_yield": "ratio", "mover.cache_hits": "count", "mover.verify_calls": "count",
    "mover.verify_s": "s", "mover.pairing_s": "s",
    "cwcheck.character_s": "s", "cwcheck.isotypic_calls": "count", "cwcheck.isotypic_s": "s",
    "cli.self_s": "s", "cli.serialize_s": "s", "cli.output_bytes": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS if layer != "cli"},
    "trace.overhead_ratio": "ratio",
}

REQUEST = "bench.request"
SETUP = "bench.setup"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.request = array("i")
        self.raised = array("b")
        self.rank_shape: dict[int, tuple[int, int]] = {}  # span -> (cells, nonzeros)
        self.output_bytes = 0
        self.request_id = -1
        self._stack: list[int] = []
        self._refs: list | None = None

    # -- recording -----------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.end.append(0)
        self.raised.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int, raised: bool = False) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()
        if raised:
            self.raised[idx] = 1

    @contextmanager
    def span(self, name: str, request_id: int):
        """A benchmark-level span (a request or the set-up).  The layer
        wrappers are bound only while it is open."""
        self.request_id = request_id
        self._bind(install=True)
        idx = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(idx)
            self._bind(install=False)

    def _wrap(self, qualname: str, fn):
        nid = self._intern(qualname)
        is_rank = qualname == "linalg.rank"

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, raised=True)
                raise
            self._close(idx)
            if is_rank and args and args[0]:
                rows = args[0]
                cells = len(rows) * len(rows[0])
                self.rank_shape[idx] = (cells, cells - sum(row.count(0) for row in rows))
            return result

        return traced

    # -- installation --------------------------------------------------

    def _find_references(self) -> list[tuple[object, str, object, object]]:
        """(module, attribute, original, wrapper) for every reference any
        coverslide module holds to a function in TRACED."""
        layers = {layer: importlib.import_module(f"coverslide.{layer}") for layer in TRACED}
        modules = [m for name, m in list(sys.modules.items())
                   if name == "coverslide" or name.startswith("coverslide.")]
        refs = []
        for layer, funcs in TRACED.items():
            module = layers[layer]
            for fname in funcs:
                original = getattr(module, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for m in modules:
                    refs.extend((m, attr, original, wrapper)
                                for attr, value in vars(m).items() if value is original)
        return refs

    def _bind(self, install: bool) -> None:
        if self._refs is None:
            self._refs = self._find_references()
        for m, attr, original, wrapper in self._refs:
            setattr(m, attr, wrapper if install else original)

    # -- analysis ------------------------------------------------------

    def durations(self) -> list[int]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> list[int]:
        """Each span's duration minus the time its direct children cover."""
        own = self.durations()
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def layer_metrics(self, overhead_ratio: float) -> dict[str, float]:
        """The per-layer metrics of PER_LAYER_UNITS over every recorded span."""
        names = self.names
        stem_of = {}
        for bit, (stem, members) in enumerate(STEMS.items()):
            for member in members:
                stem_of[member] = (stem, 1 << bit)
        calls = {stem: 0 for stem in STEMS}
        total = {stem: 0 for stem in STEMS}
        layer_self = {layer: 0 for layer in LAYERS}
        count = len(self.name)
        ancestors = [0] * count  # bit set of stems open above each span
        has_search = [False] * count
        own = self.self_times()
        cells = nonzeros = candidates = successes = cache_hits = cli_self = 0
        span_stem = [stem_of.get(names[nid]) for nid in self.name]

        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                ps = span_stem[p]
                ancestors[i] = ancestors[p] | (ps[1] if ps else 0)
            qual = names[self.name[i]]
            layer = qual.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += own[i]
            if qual == "cli.main":  # the CLI's own code, outside every traced call
                cli_self += own[i]
            st = span_stem[i]
            if st and not ancestors[i] & st[1]:
                calls[st[0]] += 1
                total[st[0]] += self.end[i] - self.start[i]
            if qual == "linalg.rank" and i in self.rank_shape:
                c, nz = self.rank_shape[i]
                cells += c
                nonzeros += nz
            if qual == "homology.orbit_rank_of_chain" and p >= 0 and names[self.name[p]] == "mover.find_slide_loop":
                candidates += 1
            if qual == "mover.find_slide_loop":
                successes += not self.raised[i]
                # mark the enclosing move_vector as having searched
                q = p
                while q >= 0:
                    if names[self.name[q]] == "mover.move_vector":
                        has_search[q] = True
                        break
                    q = self.parent[q]
        for i in range(count):
            if names[self.name[i]] == "mover.move_vector":
                cache_hits += not has_search[i]

        m = {}
        for stem in STEMS:
            m[f"{stem}_s"] = total[stem] / 1e9
            m[f"{stem}_calls"] = calls[stem]
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self[layer] / 1e9
        m.update({
            "linalg.rank_cells": cells,
            "linalg.rank_density": nonzeros / cells if cells else 0.0,
            "mover.candidates": candidates,
            "mover.search_yield": successes / candidates if candidates else 0.0,
            "mover.cache_hits": cache_hits,
            "cli.self_s": cli_self / 1e9,
            "cli.output_bytes": self.output_bytes,
            "trace.overhead_ratio": overhead_ratio,
        })
        return {name: m[name] for name in PER_LAYER_UNITS}

    def dump(self, path: Path) -> None:
        """Write every span as a tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\trequest\tname\tstart_ns\tend_ns\traised\n")
            names = self.names
            for i in range(len(self.name)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.request[i]}\t{names[self.name[i]]}"
                    f"\t{self.start[i]}\t{self.end[i]}\t{self.raised[i]}\n"
                )

