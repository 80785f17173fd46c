"""Span tracer that measures each logmult module from the outside.

``Tracer.install`` wraps, from the benchmark's side only:

* every public function of each library module, at every module binding it
  is imported into (``transform`` inside ``lp_ops``, ``shifted_lab``, ...);
* ``numpy.fft.fftn`` and ``numpy.fft.ifftn``;
* the profile ``__call__`` methods;
* ``SampledField.__post_init__`` and ``Spectrum.__post_init__``;
* ``SpectralFactor.spectrum_on``.

Spans (name, start, end, parent, error, attributes) stay in memory until the
run ends.  ``Tracer.restore`` puts every original back.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from classify import CLASSES, piece_classes

LAYERS = (
    "field",
    "calibration",
    "lp_ops",
    "shifted_lab",
    "multiplier",
    "exponents",
    "counterexample",
    "cli",
    "reporting",
)
FFT_SIZES = (256, 512, 1024, 4096, 16384, 2**20, 2**22)
CLI_COMMANDS = ("partition", "changevars", "peetre", "lambda", "plan")
SYNTH = ("random_band_limited", "modulated_bump", "bump_train")

# Every per-layer metric, in report order, with its unit.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("field.fft.calls", "count"),
    *((f"field.fft.calls.n{n}", "count") for n in FFT_SIZES),
    ("field.fft.calls.other", "count"),
    ("field.fft.self_s", "s"),
    ("field.fft.gflop", "GFLOP"),
    ("field.fft.gbytes", "GB"),
    ("field.construct.calls", "count"),
    ("field.construct.self_s", "s"),
    ("field.construct.gbytes", "GB"),
    ("field.transform.self_s", "s"),
    ("field.inverse.self_s", "s"),
    ("field.phase_shift.calls", "count"),
    ("field.phase_shift.self_s", "s"),
    ("field.norm.self_s", "s"),
    ("calibration.profile.calls", "count"),
    ("calibration.profile.self_s", "s"),
    ("calibration.profile.mpoints", "Mpoint"),
    ("lp_ops.maximal.calls", "count"),
    ("lp_ops.maximal.self_s", "s"),
    ("lp_ops.square.calls", "count"),
    ("lp_ops.square.self_s", "s"),
    ("lp_ops.fft.calls", "count"),
    ("lp_ops.pieces", "count"),
    ("lp_ops.pieces.zero", "count"),
    ("lp_ops.pieces.plateau", "count"),
    ("lp_ops.pieces.partial", "count"),
    ("lp_ops.pieces.useful_frac", "frac"),
    ("lp_ops.dyadic_piece.self_s", "s"),
    ("lp_ops.peetre.calls", "count"),
    ("lp_ops.peetre.self_s", "s"),
    ("shifted_lab.synth.calls", "count"),
    ("shifted_lab.synth.self_s", "s"),
    ("shifted_lab.proxy.calls", "count"),
    ("shifted_lab.proxy.self_s", "s"),
    ("shifted_lab.proxy.estimator_calls", "count"),
    ("shifted_lab.changevars.self_s", "s"),
    ("shifted_lab.dilate.self_s", "s"),
    ("multiplier.apply_t.calls", "count"),
    ("multiplier.apply_t.self_s", "s"),
    ("multiplier.spectrum_on.calls", "count"),
    ("multiplier.spectrum_on.self_s", "s"),
    ("multiplier.spectrum_on.mpoints", "Mpoint"),
    ("multiplier.fft.calls", "count"),
    ("multiplier.d_lambda.bracket.self_s", "s"),
    ("multiplier.d_lambda.exact.self_s", "s"),
    ("multiplier.d_lambda.refused", "count"),
    ("counterexample.build_inputs.self_s", "s"),
    ("counterexample.validate.self_s", "s"),
    ("counterexample.run.calls", "count"),
    ("counterexample.run.self_s", "s"),
    ("counterexample.runs_per_fit", "count"),
    ("exponents.calls", "count"),
    ("exponents.self_s", "s"),
    *((f"cli.{c}.total_s", "s") for c in CLI_COMMANDS),
    ("reporting.self_s", "s"),
    ("reporting.bytes", "B"),
    *((f"{layer}.errors", "count") for layer in LAYERS),
    ("trace.overhead_frac", "frac"),
)


def _fft_attrs(args, kwargs):
    return {"n": int(getattr(args[0], "size", 0))}


def _construct_attrs(args, kwargs, result):
    obj = args[0]
    arr = obj.values if hasattr(obj, "values") else obj.coefficients
    return {"bytes": int(arr.nbytes)}


def _points_attrs(args, kwargs):
    r = args[1] if len(args) > 1 else kwargs.get("r")
    return {"points": int(getattr(r, "size", 1))}


def _spectrum_on_attrs(args, kwargs):
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    return {"points": int(grid.size)}


def _render_attrs(args, kwargs, result):
    return {"bytes": len(result.encode())}


def _csv_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _d_lambda_attrs(args, kwargs, result):
    return {"method": result.method}


def _cli_attrs(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return {"command": argv[0] if argv else None}


_SCALE = {"GFLOP": 1e-9, "GB": 1e-9, "Mpoint": 1e-6}


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent, error, attrs]
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_enter: Optional[Callable] = None,
        on_exit: Optional[Callable] = None,
    ) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = on_enter(args, kwargs) if on_enter is not None else None
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, False, attrs]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                stack.pop()
                span[4] = True
                span[5] = {**(attrs or {}), "error": f"{type(exc).__name__}: {exc}"[:200]}
                raise
            span[2] = clock()
            stack.pop()
            if on_exit is not None:
                span[5] = {**(attrs or {}), **on_exit(args, kwargs, result)}
            return result

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, new)

    def install(self, lib: Dict[str, object], numpy_module) -> None:
        """Wrap the library entry points listed in the module docstring."""
        modules = [lib[layer] for layer in LAYERS]
        hooks = {
            "lp_ops.maximal_function": (self._classify_hook("phi_hat"), None),
            "lp_ops.square_function": (self._classify_hook("psi_hat"), None),
            "multiplier.d_lambda": (None, _d_lambda_attrs),
            "cli.main": (_cli_attrs, None),
            "reporting.render_report": (None, _render_attrs),
            "reporting.write_csv": (None, _csv_attrs),
        }
        for layer, module in zip(LAYERS, modules):
            for fname, fn in _public_functions(module).items():
                name = f"{layer}.{fname}"
                on_enter, on_exit = hooks.get(name, (None, None))
                wrapped = self.wrap(name, fn, on_enter, on_exit)
                for other in modules:
                    for attr, value in list(vars(other).items()):
                        if value is fn:
                            self._patch(other, attr, wrapped)
        for fname in ("fftn", "ifftn"):
            fn = getattr(numpy_module.fft, fname)
            self._patch(numpy_module.fft, fname, self.wrap("field.fft", fn, _fft_attrs))
        field, calibration, multiplier = lib["field"], lib["calibration"], lib["multiplier"]
        for cls in (field.SampledField, field.Spectrum):
            fn = cls.__dict__["__post_init__"]
            self._patch(cls, "__post_init__", self.wrap("field.construct", fn, None, _construct_attrs))
        for cls in (calibration.RadialProfile, calibration.AnnularProfile, calibration._TelescopedAnnulus):
            fn = cls.__dict__["__call__"]
            self._patch(cls, "__call__", self.wrap("calibration.profile", fn, _points_attrs))
        fn = multiplier.SpectralFactor.__dict__["spectrum_on"]
        self._patch(
            multiplier.SpectralFactor,
            "spectrum_on",
            self.wrap("multiplier.spectrum_on", fn, _spectrum_on_attrs),
        )

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @staticmethod
    def _classify_hook(profile_attr: str) -> Callable:
        def hook(args, kwargs):
            f = args[0]
            pair = args[1] if len(args) > 1 else kwargs["pair"]
            counts = piece_classes(f.band, getattr(pair, profile_attr), pair.scales)
            return {cls: counts.get(cls, 0) for cls in CLASSES}

        return hook

    # -- reduction ---------------------------------------------------------

    def layer_metrics(self, units: int, overhead_frac: float) -> Dict[str, float]:
        """Per-unit layer metrics over every recorded span (see ``LAYER_METRICS``)."""
        spans = self.spans
        n = len(spans)
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * n
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        self_s = [d - c for d, c in zip(dur, child)]
        # names of the ancestors that layer metrics condition on, per span
        watched = {"shifted_lab.operator_norm_proxy", "counterexample.ratio_growth_fit"}
        under: List[frozenset] = []
        for s in spans:
            if s[3] < 0:
                under.append(frozenset())
                continue
            parent = spans[s[3]]
            tags = {parent[0].split(".", 1)[0]}
            if parent[0] in watched:
                tags.add(parent[0])
            under.append(under[s[3]] | tags)

        total: Dict[str, float] = defaultdict(float)
        for i, (name, _, _, parent, error, attrs) in enumerate(spans):
            layer = name.split(".", 1)[0]
            attrs = attrs or {}
            if error:
                total[f"{layer}.errors"] += 1
            total[f"{name}#calls"] += 1
            total[f"{name}#self"] += self_s[i]
            if name == "field.fft":
                size = attrs["n"]
                key = f"field.fft.calls.n{size}" if size in FFT_SIZES else "field.fft.calls.other"
                total[key] += 1
                if size > 1:
                    total["field.fft.gflop"] += 5.0 * size * math.log2(size)
                total["field.fft.gbytes"] += 32.0 * size
                for owner in ("lp_ops", "multiplier"):
                    if owner in under[i]:
                        total[f"{owner}.fft.calls"] += 1
            elif name == "field.construct":
                total["field.construct.gbytes"] += attrs.get("bytes", 0)
            elif name == "calibration.profile":
                if parent < 0 or spans[parent][0] != name:  # not psi's inner phi calls
                    total["calibration.profile.calls"] += 1
                    total["calibration.profile.mpoints"] += attrs["points"]
            elif name == "multiplier.spectrum_on":
                total["multiplier.spectrum_on.mpoints"] += attrs["points"]
            elif name in ("lp_ops.maximal_function", "lp_ops.square_function"):
                for cls in CLASSES:
                    total[f"lp_ops.pieces.{cls}"] += attrs[cls]
                if "shifted_lab.operator_norm_proxy" in under[i]:
                    total["shifted_lab.proxy.estimator_calls"] += 1
            elif name == "multiplier.d_lambda":
                method = attrs.get("method")
                if method in ("bracket", "exact"):
                    total[f"multiplier.d_lambda.{method}.self_s"] += self_s[i]
                if "bracket width" in attrs.get("error", ""):
                    total["multiplier.d_lambda.refused"] += 1
            elif name == "counterexample.run_counterexample":
                if "counterexample.ratio_growth_fit" in under[i]:
                    total["counterexample.fit_runs"] += 1
            elif name == "cli.main" and attrs.get("command") in CLI_COMMANDS:
                total[f"cli.{attrs['command']}.total_s"] += dur[i]
            elif name in ("reporting.render_report", "reporting.write_csv"):
                total["reporting.bytes"] += attrs.get("bytes", 0)
            if layer == "exponents":
                total["exponents.calls"] += 1
                total["exponents.self_s"] += self_s[i]
            elif layer == "reporting":
                total["reporting.self_s"] += self_s[i]

        def calls(name: str) -> float:
            return total.get(f"{name}#calls", 0.0)

        def self_time(*names: str) -> float:
            return sum(total.get(f"{name}#self", 0.0) for name in names)

        pieces = sum(total.get(f"lp_ops.pieces.{cls}", 0.0) for cls in CLASSES)
        fits = calls("counterexample.ratio_growth_fit")
        derived = {
            "field.fft.calls": calls("field.fft"),
            "field.fft.self_s": self_time("field.fft"),
            "field.construct.calls": calls("field.construct"),
            "field.construct.self_s": self_time("field.construct"),
            "field.transform.self_s": self_time("field.transform"),
            "field.inverse.self_s": self_time("field.inverse"),
            "field.phase_shift.calls": calls("field.phase_shift"),
            "field.phase_shift.self_s": self_time("field.phase_shift"),
            "field.norm.self_s": self_time("field.lp_norm", "field.mixed_norm"),
            "calibration.profile.self_s": self_time("calibration.profile"),
            "lp_ops.maximal.calls": calls("lp_ops.maximal_function"),
            "lp_ops.maximal.self_s": self_time("lp_ops.maximal_function"),
            "lp_ops.square.calls": calls("lp_ops.square_function"),
            "lp_ops.square.self_s": self_time("lp_ops.square_function"),
            "lp_ops.pieces": pieces,
            "lp_ops.dyadic_piece.self_s": self_time("lp_ops.dyadic_piece"),
            "lp_ops.peetre.calls": calls("lp_ops.peetre_max"),
            "lp_ops.peetre.self_s": self_time("lp_ops.peetre_max"),
            "shifted_lab.synth.calls": sum(calls(f"shifted_lab.{s}") for s in SYNTH),
            "shifted_lab.synth.self_s": self_time(*(f"shifted_lab.{s}" for s in SYNTH)),
            "shifted_lab.proxy.calls": calls("shifted_lab.operator_norm_proxy"),
            "shifted_lab.proxy.self_s": self_time("shifted_lab.operator_norm_proxy"),
            "shifted_lab.changevars.self_s": self_time("shifted_lab.change_of_variables_check"),
            "shifted_lab.dilate.self_s": self_time("shifted_lab.dilate_field"),
            "multiplier.apply_t.calls": calls("multiplier.apply_t"),
            "multiplier.apply_t.self_s": self_time("multiplier.apply_t"),
            "multiplier.spectrum_on.calls": calls("multiplier.spectrum_on"),
            "multiplier.spectrum_on.self_s": self_time("multiplier.spectrum_on"),
            "counterexample.build_inputs.self_s": self_time("counterexample.build_inputs"),
            "counterexample.validate.self_s": self_time("counterexample.validate_config"),
            "counterexample.run.calls": calls("counterexample.run_counterexample"),
            "counterexample.run.self_s": self_time("counterexample.run_counterexample"),
        }
        total.update(derived)
        out: Dict[str, float] = {}
        for name, unit in LAYER_METRICS:
            # sums stay exact integers until here, so equal work gives equal values
            out[name] = total.get(name, 0.0) / units * _SCALE.get(unit, 1.0)
        # ratios are not per-unit quantities
        out["lp_ops.pieces.useful_frac"] = (
            total.get("lp_ops.pieces.partial", 0.0) / pieces if pieces else 0.0
        )
        out["counterexample.runs_per_fit"] = (
            total.get("counterexample.fit_runs", 0.0) / fits if fits else 0.0
        )
        out["trace.overhead_frac"] = overhead_frac
        return out

    def dump(self, path: str) -> None:
        """Write the spans as one JSON document (names interned in a table)."""
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [index[s[0]], round(s[1] - t0, 9), round(s[2] - t0, 9), s[3], int(s[4]), s[5]]
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"names": names, "columns": ["name", "start_s", "end_s", "parent", "error", "attrs"], "spans": rows}, fh)


def _public_functions(module) -> Dict[str, Callable]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out[name] = obj
    return out
