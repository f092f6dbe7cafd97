"""Per-layer tracing from outside the library.

The tracer wraps public functions of the phaseret modules.  A wrapped
function is rebound in every phaseret.* namespace that holds the same
object, so calls made through `from .frames import spanning_at`-style
imports are traced too; a target that no longer exists is skipped and
reports zero calls.  `attach` and `detach` switch the wrappers in and
out, so traced and untraced ops can alternate in one run.  Each call
records a span (name, start, end, parent
span, op id) in flat arrays kept in memory; `save` writes them out.
Self time is a span's duration minus the durations of its direct
traced children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np


def _status_is_falsified(result) -> bool:
    return getattr(getattr(result, "status", None), "value", None) == "falsified"


# (module, qualified name, outcome counted for the ratio, ratio name)
TARGETS = [
    ("certify", "pr_falsifier", _status_is_falsified, "falsified_ratio"),
    ("certify", "spanning_falsifier", None, None),
    ("certify", "hermitian_nullspace_witness", lambda r: r is not None, "hit_ratio"),
    ("certify", "complex_counterexample", None, None),
    ("certify", "gen_full_spark", None, None),
    ("certify", "decide_real_rank1", None, None),
    ("certify", "verify_pr_witness", lambda r: bool(getattr(r, "valid", False)), "valid_ratio"),
    ("certify", "pr_witness_from_nonspanning", None, None),
    ("certify", "measurements", None, None),
    ("frames", "complement_property", None, None),
    ("frames", "full_spark", None, None),
    ("frames", "spanning_at", None, None),
    ("frames", "image_matrix", None, None),
    ("frames", "ProjectionFamily.from_frame", None, None),
    ("frames", "ProjectionFamily.from_projections", None, None),
    ("linalg", "numerical_rank", None, None),
    ("linalg", "orthogonal_complement_point", None, None),
    ("linalg", "orthonormalize", None, None),
    ("linalg", "projector_from_basis", None, None),
    ("seeding", "spawn_rng", None, None),
    ("serialize", "load_family", None, None),
    ("serialize", "save_json", None, None),
    ("serialize", "verdict_to_dict", None, None),
    ("cli", "main", None, None),
]


def _phaseret_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "phaseret" or name.startswith("phaseret."))]


class Tracer:
    def __init__(self):
        self.names = [f"{mod}.{qual}" for mod, qual, _, _ in TARGETS]
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.hits = [0] * len(TARGETS)
        self.op_id = -1
        self._stack = []
        self._bindings = None

    def attach(self) -> None:
        """Rebind every target to its traced wrapper."""
        if self._bindings is None:
            self._bindings = self._find_bindings()
        for owner, attr, _, wrapped in self._bindings:
            setattr(owner, attr, wrapped)

    def detach(self) -> None:
        """Restore the original bindings."""
        for owner, attr, original, _ in reversed(self._bindings or ()):
            setattr(owner, attr, original)

    def _find_bindings(self) -> list[tuple]:
        modules = _phaseret_modules()
        bindings = []
        for nid, (mod, qual, outcome, _) in enumerate(TARGETS):
            module = sys.modules.get(f"phaseret.{mod}")
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None:
                continue
            if inspect.isclass(owner):
                raw = owner.__dict__.get(attr)
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(nid, raw.__func__, outcome))
                elif callable(raw):
                    wrapped = self._wrap(nid, raw, outcome)
                else:
                    continue
                bindings.append((owner, attr, raw, wrapped))
                continue
            fn = getattr(owner, attr, None)
            if not callable(fn):
                continue
            wrapped = self._wrap(nid, fn, outcome)
            bindings += [(m, key, fn, wrapped) for m in modules
                         for key, value in list(vars(m).items()) if value is fn]
        return bindings

    def _wrap(self, nid: int, fn, outcome):
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if outcome is not None and outcome(result):
                self.hits[nid] += 1
            return result

        return traced

    def _arrays(self):
        return (np.array(self.name_id, dtype=np.int64), np.array(self.parent, dtype=np.int64),
                np.array(self.start, dtype=np.float64), np.array(self.end, dtype=np.float64))

    def metrics(self) -> dict[str, float]:
        """calls, total_s and self_s per target, plus the outcome ratios."""
        name_id, parent, start, end = self._arrays()
        dur = end - start
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        k = len(TARGETS)
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=dur, minlength=k)
        self_t = np.bincount(name_id, weights=dur - child, minlength=k)
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[nid])
            out[f"{name}.total_s"] = float(total[nid])
            out[f"{name}.self_s"] = float(self_t[nid])
        for nid, (_, _, _, ratio) in enumerate(TARGETS):
            if ratio:
                name = self.names[nid]
                out[f"{name}.{ratio}"] = self.hits[nid] / calls[nid] if calls[nid] else 0.0
        return out

    def save(self, path) -> None:
        name_id, parent, start, end = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id, parent=parent,
                            op=np.array(self.op, dtype=np.int32), start=start, end=end)
