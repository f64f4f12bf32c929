"""Outside-in layer trace for the blockweights package.

The benchmark never edits the package.  It replaces, in the namespaces of
blockweights.verify, blockweights.cli and blockweights.oracle, the names those
modules look up at call time with timing wrappers, so each layer's calls and
inclusive seconds are measured at the boundary where the caller crosses into
it.  A span stack gives self time: a span's duration minus the time of the
wrapped spans it directly encloses.  Work of a layer whose names disappear in
a refactor therefore lands in the self time of its caller.

Only names that exist are wrapped, and the names each layer found are
reported, so a refactor shows up as a changed name list rather than as a
silently vanished number.
"""

from __future__ import annotations

import importlib
import time

# Layer name -> (module, attribute) pairs looked up by the calling module.
# The layer is named after the module that owns the code, the attribute is
# replaced in the namespace of the module that calls it.
LAYERS = {
    "verify.run_instance": [("verify", "run_instance")],
    "symbols.center_action": [
        ("verify", name)
        for name in (
            "_acted_block_key",
            "_acted_admissible_key",
            "_acted_weight_key",
            "_z_fixes_cycle",
            "_block_steps",
            "z_act",
        )
    ],
    "semisimple.center_elements": [
        ("verify", "center_elements"),
        ("oracle", "center_elements"),
    ],
    "symbols.enumerate_block_symbols": [("verify", "enumerate_block_symbols")],
    "symbols.enumerate_in_block": [
        ("verify", "symbols_in_block"),
        ("verify", "weight_symbols_in_block"),
    ],
    "symbols.counts": [
        ("verify", "count_symbols_in_block"),
        ("verify", "count_weight_symbols_in_block"),
    ],
    "symbols.bijection": [
        ("verify", "to_weight_symbol"),
        ("verify", "from_weight_symbol"),
    ],
    "verify.serialize": [
        ("cli", "reports_to_json"),
        ("cli", "reports_to_csv"),
    ],
    "oracle.enumerate_matrix_group": [("oracle", "enumerate_matrix_group")],
    "oracle.generating_set": [("oracle", "generating_set")],
    "oracle.conjugacy_class_reps": [("oracle", "conjugacy_class_reps")],
    "oracle.element_order": [("oracle", "element_order")],
    "oracle.engine_count": [("oracle", "_engine_count")],
}

# Spans the benchmark opens itself around its calls into the package.
OUTER_LAYERS = ("cli.main", "verify.iter_grid", "oracle.cross_check")

# Layers whose string results are measured in bytes.
BYTE_LAYERS = ("verify.serialize",)

# lru caches owned by each module; the names that iter_grid calls to clear
# them between regimes are wrapped so statistics survive the clear.
CACHES = [
    ("semisimple", "_orbit_of"),
    ("semisimple", "_acted_rep"),
    ("symbols", "_z_fixes_cycle"),
    ("symbols", "_weight_data"),
    ("symbols", "_brauer_partition"),
    ("partitions", "e_core"),
    ("partitions", "enumerate_with_core"),
    ("weights", "enumerate_core_functions"),
    ("weights", "count_core_functions"),
]
CLEARS = [("verify", "clear_orbit_caches"), ("verify", "clear_symbol_caches")]


def _module(short: str):
    return importlib.import_module(f"blockweights.{short}")


class Tracer:
    """Installs the wrappers on construction and restores them on close."""

    def __init__(self):
        self.stats = {
            name: {"calls": 0, "s": 0.0, "self_s": 0.0, "bytes": 0}
            for name in (*OUTER_LAYERS, *LAYERS)
        }
        self.found = {name: [] for name in LAYERS}
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []
        self._caches = {}
        for short, attr in CACHES:
            fn = getattr(_module(short), attr, None)
            if fn is not None and hasattr(fn, "cache_info"):
                self._caches[f"{short}.{attr}"] = fn
        # Hits and misses banked before each clear; starts at minus the
        # counts left over from import and set-up.
        self._banked = {}
        self._largest = {}
        for name, fn in self._caches.items():
            info = fn.cache_info()
            self._banked[name] = [-info.hits, -info.misses]
            self._largest[name] = info.currsize
        for layer, names in LAYERS.items():
            for short, attr in names:
                wrapped = self._replace(
                    short, attr, lambda fn, layer=layer: self._span(layer, fn)
                )
                if wrapped:
                    self.found[layer].append(f"{short}.{attr}")
        for short, attr in CLEARS:
            self._replace(short, attr, self._wrap_clear)

    def _replace(self, short: str, attr: str, make) -> bool:
        module = _module(short)
        original = getattr(module, attr, None)
        if original is None:
            return False
        self._restore.append((module, attr, original))
        setattr(module, attr, make(original))
        return True

    def close(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def call(self, layer: str, fn, *args, **kwargs):
        """Call fn inside a span of one of the benchmark's own outer layers."""
        return self._span(layer, fn)(*args, **kwargs)

    def _span(self, layer: str, fn):
        stat = self.stats[layer]
        stack = self._stack
        count_bytes = layer in BYTE_LAYERS
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat["calls"] += 1
                stat["s"] += elapsed
                stat["self_s"] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if count_bytes and isinstance(result, str):
                stat["bytes"] += len(result.encode("utf-8"))
            return result

        return wrapper

    def _snapshot(self):
        return {name: fn.cache_info() for name, fn in self._caches.items()}

    def _wrap_clear(self, fn):
        def wrapper(*args, **kwargs):
            before = self._snapshot()
            result = fn(*args, **kwargs)
            for name, info in self._snapshot().items():
                old = before[name]
                self._largest[name] = max(self._largest[name], old.currsize)
                if info.hits + info.misses < old.hits + old.misses:
                    self._banked[name][0] += old.hits
                    self._banked[name][1] += old.misses
            return result

        return wrapper

    def cache_stats(self) -> dict:
        """Per cache: hits, misses and the largest size seen at any clear or
        at the end, summed across the clears that reset cache_info()."""
        out = {}
        for name, info in self._snapshot().items():
            hits = self._banked[name][0] + info.hits
            misses = self._banked[name][1] + info.misses
            out[name] = {
                "hits": hits,
                "misses": misses,
                "hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
                "currsize": max(self._largest[name], info.currsize),
            }
        return out

