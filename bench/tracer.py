"""Outside-in tracer: spans and counts recorded around calls into gkdv.

Nothing in the program changes.  While a Tracer is open, each traced
function is replaced by a timing wrapper at every place it is bound -- the
module that defines it, every gkdv module that imported it by name and the
package's re-exports -- traced methods are wrapped on their classes, and
numpy's FFT entry points are wrapped on numpy.fft.  Closing the tracer puts
every original back.

A span is (name, start, end, parent); spans stay in memory until save().
Self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# Traced functions by defining module.  A name that a later version of the
# program no longer defines is skipped and reports zero.
FUNCTIONS = {
    "spectral": ("forward_transform", "inverse_transform", "apply_multiplier_values",
                 "dealias", "linear_combination"),
    "semigroup": ("apply_semigroup", "duhamel_integral", "smoothing_norm_profile"),
    "norms": ("lebesgue_norm", "sobolev_norm", "x_norm"),
    "symbols": ("evaluate_phi",),
    "probes": ("gaussian_field", "rough_field"),
    "solver": ("nonlinearity_eval", "calibrate_c", "picard_iterate", "solve",
               "reference_integrate"),
    "verifier": ("verify_contraction_scaling", "verify_multiplier_decay",
                 "verify_weighted_linear", "verify_hausdorff_young",
                 "verify_threshold_conditions"),
    "cli": ("run_solve", "run_verify"),
}
METHODS = {
    ("semigroup", "Propagator"): ("multiplier",),
    ("runconfig", "RunConfig"): ("from_file", "build_grid", "build_symbol",
                                 "build_initial_data", "build_problem"),
}
# Real transforms count too, so a switch to rfft/irfft stays visible.
FFT = {"fft": "fft.forward", "rfft": "fft.forward", "ifft": "fft.inverse", "irfft": "fft.inverse"}

ROOT_SPAN = "bench.op"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.nid = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple] = []
        self.bindings: list[str] = []
        # Per-op counters the spans cannot give.
        self.fft_bytes = 0
        self.multiplier_keys: set = set()

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, note=None):
        nid, ids, parents, starts, ends = self._name_id(name), self.nid, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if note is not None:
                note(args, out)
            return out

        return traced

    def span(self, fn):
        """Run fn() inside a root span; the calls it makes become its children."""
        return self._wrap(ROOT_SPAN, fn)()

    def _note_fft(self, args, out):
        self.fft_bytes += np.asarray(args[0]).nbytes + out.nbytes

    def _note_multiplier(self, args, out):
        prop, t = args
        self.multiplier_keys.add((prop, float(t)))

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _rebind_everywhere(self, modules, orig, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._patch(mod, attr, wrapper)

    def __enter__(self):
        gkdv = [m for name, m in sys.modules.items() if name == "gkdv" or name.startswith("gkdv.")]
        for mod_name, fn_names in FUNCTIONS.items():
            home = sys.modules.get(f"gkdv.{mod_name}")
            for fn_name in fn_names:
                orig = getattr(home, fn_name, None)
                if orig is not None:
                    self._rebind_everywhere(gkdv, orig, self._wrap(f"{mod_name}.{fn_name}", orig))
        for (mod_name, cls_name), meth_names in METHODS.items():
            cls = getattr(sys.modules.get(f"gkdv.{mod_name}"), cls_name, None)
            for meth in meth_names:
                raw = vars(cls).get(meth) if cls is not None else None
                if raw is None:
                    continue
                note = self._note_multiplier if meth == "multiplier" else None
                name = f"{mod_name}.{cls_name}.{meth}"
                if isinstance(raw, classmethod):
                    self._patch(cls, meth, classmethod(self._wrap(name, raw.__func__, note)))
                else:
                    self._patch(cls, meth, self._wrap(name, raw, note))
        for fn_name, name in FFT.items():
            orig = getattr(np.fft, fn_name)
            self._rebind_everywhere(gkdv + [np.fft], orig, self._wrap(name, orig, self._note_fft))
        # Every place a wrapper is bound, as owner.attribute.
        self.bindings = sorted(f"{owner.__name__}.{attr}" for owner, attr, _ in self._patches)
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)
            if vars(owner)[attr] is not orig:
                raise RuntimeError(f"could not restore {owner.__name__}.{attr}")
        return False

    # -- reading ---------------------------------------------------------

    def reset_counters(self):
        self.fft_bytes = 0
        self.multiplier_keys = set()

    def totals(self, first: int = 0) -> dict:
        """calls, total_s and self_s per span name, over spans first onward."""
        nid = np.frombuffer(self.nid, dtype=np.int32)[first:]
        parent = np.frombuffer(self.parent, dtype=np.int64)[first:] - first
        dur = np.frombuffer(self.end)[first:] - np.frombuffer(self.start)[first:]
        inside = parent >= 0
        child = np.bincount(parent[inside], weights=dur[inside], minlength=dur.size)
        size = len(self.names)
        calls = np.bincount(nid, minlength=size)
        total = np.bincount(nid, weights=dur, minlength=size)
        own = np.bincount(nid, weights=dur - child, minlength=size)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.nid, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
