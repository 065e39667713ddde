"""In-memory span recorder around fpmap's layer functions.

The recorder replaces layer functions in the module namespaces that call
them (``fpmap.pipeline`` for the stages, ``fpmap.extraction`` for
``solve_in_span``, and the ``Norm``/``Truncation`` classes for per-element
evaluation and rank rows), so a traced run executes fpmap's real chain.
``uninstall`` puts every original back.

A span is (name, start, end, parent, config id). Spans are kept in columnar
arrays and written once, at the end, by ``save``. A span's self time is its
duration minus the time its direct children cover; spans nest strictly
because the traced run is single-threaded.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from array import array
from time import perf_counter

import numpy as np

ROOT = "cli.run"
RANK_ROW = "fpcore.rank_row"

# (span name, module path, attribute, name of the result counter or None)
STAGE_TARGETS = (
    ("norms.build", "fpmap.pipeline", "norm_from_config", None),
    ("norms.validate_axioms", "fpmap.pipeline", "validate_axioms", "pairs_checked"),
    ("reduction.reduce_basis", "fpmap.pipeline", "reduce_basis", None),
    ("reduction.verify_reduced_properties", "fpmap.pipeline",
     "verify_reduced_properties", "checked"),
    ("reduction.check_member_word_bound", "fpmap.pipeline",
     "check_member_word_bound", "checked"),
    ("reduction.check_pair_domination", "fpmap.pipeline", "check_pair_domination",
     "checked"),
    ("extraction.norm_sorted_span", "fpmap.pipeline", "norm_sorted_span", None),
    ("extraction.select_null_subsequence", "fpmap.pipeline",
     "select_null_subsequence", None),
    ("extraction.extract_independent_family", "fpmap.pipeline",
     "extract_independent_family", None),
    ("extraction.independence_modulus", "fpmap.pipeline", "independence_modulus",
     "combos_checked"),
    ("duality.product_coarser_check", "fpmap.pipeline", "product_coarser_check",
     "combos_checked"),
    ("fpcore.solve_in_span", "fpmap.extraction", "solve_in_span", None),
)
METHOD_TARGETS = (
    ("norms.eval", "fpmap.norms", "Norm", "eval"),
    (RANK_ROW, "fpmap.fpcore", "Truncation", "add_rank_row"),
    (RANK_ROW, "fpmap.fpcore", "Truncation", "sub_rank_row"),
)


class SpanRecorder:
    """Records nested spans for one traced run; install() / uninstall()."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.config = array("i")
        self.counters: dict[tuple[int, str], int] = {}
        self._stack: list[int] = []
        self._config_id = -1
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        got = self._name_id.get(name)
        if got is None:
            got = self._name_id[name] = len(self.names)
            self.names.append(name)
        return got

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.config.append(self._config_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, config_id: int):
        """The `fpmap run` span of one config; spans inside it carry its id."""
        self._config_id = config_id
        idx = self.open(self._id(ROOT))
        try:
            yield
        finally:
            self.close(idx)
            self._config_id = -1

    def wrap(self, name: str, fn, counter: str | None = None):
        name_id = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                key = (self._config_id, name + "." + counter)
                self.counters[key] = self.counters.get(key, 0) + getattr(result, counter)
            return result

        return traced

    def install(self) -> None:
        for name, module, attr, counter in STAGE_TARGETS:
            mod = importlib.import_module(module)
            self._patch(mod, attr, self.wrap(name, getattr(mod, attr), counter))
        for name, module, cls_name, attr in METHOD_TARGETS:
            cls = getattr(importlib.import_module(module), cls_name)
            self._patch(cls, attr, self.wrap(name, cls.__dict__[attr]))

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "config": np.frombuffer(self.config, dtype=np.int32).copy(),
        }

    def self_times(self) -> np.ndarray:
        """Duration of each span minus the durations of its direct children."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        covered = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(covered, a["parent"][has_parent], dur[has_parent])
        return dur - covered

    def per_config(self) -> dict[int, dict[str, float]]:
        """Per config: self seconds and call count of each span name.

        Nested rank rows (p=2 ``sub_rank_row`` delegates to ``add_rank_row``)
        add their self time but count as one row.
        """
        a = self.arrays()
        self_s = self.self_times()
        rank_id = self._name_id.get(RANK_ROW, -1)
        parent_name = np.where(a["parent"] >= 0, a["name"][np.maximum(a["parent"], 0)], -1)
        counted = ~((a["name"] == rank_id) & (parent_name == rank_id))
        out: dict[int, dict[str, float]] = {}
        for cfg in sorted(set(a["config"].tolist()) - {-1}):
            mask = a["config"] == cfg
            row: dict[str, float] = {}
            for name_id, name in enumerate(self.names):
                sel = mask & (a["name"] == name_id)
                row[name + ".self_s"] = float(self_s[sel].sum())
                row[name + ".calls"] = int((sel & counted).sum())
            for (c, key), value in self.counters.items():
                if c == cfg:
                    row[key] = value
            out[cfg] = row
        return out

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
