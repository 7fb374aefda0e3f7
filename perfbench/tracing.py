"""Spans and counters recorded from outside nhscatter, around calls into the
public functions of each layer.

`Tracer.install()` replaces each traced function in every `nhscatter` module
namespace that binds it (experiments imports most of them by name, so
patching only the defining module would miss those calls), the `Propagator`
methods on the class, and `scipy.linalg.expm`, which dynamics calls as the
kernel. `Tracer.uninstall()` restores the originals.

A layer's self time is the duration of its spans minus the part covered by
their child spans, so a nested call is charged to the inner layer only.
"""

import hashlib
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy.linalg

import nhscatter.dynamics
import nhscatter.lattice
import nhscatter.scattering
import nhscatter.transforms

ROOT = "experiments.run_scenario"
BUILD = "lattice.build_hamiltonian"
EXPM = "dynamics.expm"
STEP = "dynamics.step_matrix"
PROPAGATE = "dynamics.propagate"
DENSITY = "dynamics.density"
TRANSIT = "dynamics.transit_metrics"
FRAMES_CSV = "dynamics.write_frames_csv"
SWEEP = "scattering.sweep_rows"
TRANSFORMS = "transforms"


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span in Tracer.spans, -1 at the top
    start: float
    end: float = 0.0
    ham: object = None  # HamiltonianMatrix the span works on, if any


class Tracer:
    """Records spans and counters for one pass at a time (see `take`)."""

    def __init__(self):
        self._patches = []
        self._reset()

    def _reset(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._hamiltonians: set[bytes] = set()

    # --- spans ---------------------------------------------------------------

    def call(self, name: str, ham, fn, args, kwargs):
        """fn(*args, **kwargs) inside a span; `ham` is the Hamiltonian it works on."""
        parent = self._open[-1] if self._open else -1
        span = Span(name, parent, time.perf_counter(), ham=ham)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            span.ham = None  # keep no matrix alive beyond its call
            self._open.pop()

    def _current_hamiltonian(self):
        for index in reversed(self._open):
            if self.spans[index].ham is not None:
                return self.spans[index].ham
        return None

    # --- wrappers --------------------------------------------------------------

    def _expm(self, original):
        def expm(a, *args, **kwargs):
            ham = self._current_hamiltonian()
            if ham is not None:
                digest = hashlib.blake2b(ham.matrix.tobytes(), digest_size=16).digest()
                self._hamiltonians.add(digest)
            self.counts["dynamics.expm.n3_sum"] += a.shape[0] ** 3
            return self.call(EXPM, None, original, (a, *args), kwargs)

        return expm

    def _method(self, name, original):
        def method(prop, *args, **kwargs):
            return self.call(name, prop.ham, original, (prop, *args), kwargs)

        return method

    def _density(self, original):
        def density(ham, rho0, times, *args, **kwargs):
            t = np.asarray(times, dtype=float)
            previous = np.concatenate(([0.0], t[:-1]))
            self.counts["dynamics.density.steps"] += int(np.count_nonzero(t > previous))
            return self.call(DENSITY, ham, original, (ham, rho0, times, *args), kwargs)

        return density

    def _frames_csv(self, original):
        def write_frames_csv(path, *args, **kwargs):
            result = self.call(FRAMES_CSV, None, original, (path, *args), kwargs)
            self.counts["dynamics.write_frames_csv.bytes"] += os.path.getsize(path)
            return result

        return write_frames_csv

    def _sweep_rows(self, original):
        def sweep_rows(*args, **kwargs):
            rows = self.call(SWEEP, None, original, args, kwargs)
            self.counts["scattering.sweep_rows.rows"] += len(rows)
            return rows

        return sweep_rows

    def _plain(self, name, original):
        def traced(*args, **kwargs):
            return self.call(name, None, original, args, kwargs)

        return traced

    # --- install / uninstall -------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, replacement):
        for module_name, module in list(sys.modules.items()):
            if module_name != "nhscatter" and not module_name.startswith("nhscatter."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def install(self) -> None:
        dyn = nhscatter.dynamics
        self._set(scipy.linalg, "expm", self._expm(scipy.linalg.expm))
        for attr, name in (("states", PROPAGATE), ("frames", PROPAGATE), ("step_matrix", STEP)):
            original = getattr(dyn.Propagator, attr)
            self._set(dyn.Propagator, attr, self._method(name, original))
        wrappers = {
            nhscatter.lattice.build_hamiltonian: self._plain(
                BUILD, nhscatter.lattice.build_hamiltonian
            ),
            dyn.density_profile_series: self._density(dyn.density_profile_series),
            dyn.evolve_density: self._density(dyn.evolve_density),
            dyn.transit_metrics: self._plain(TRANSIT, dyn.transit_metrics),
            dyn.write_frames_csv: self._frames_csv(dyn.write_frames_csv),
            nhscatter.scattering.sweep_rows: self._sweep_rows(nhscatter.scattering.sweep_rows),
        }
        transforms = nhscatter.transforms
        for attr, value in vars(transforms).items():
            if (
                not attr.startswith("_")
                and callable(value)
                and not isinstance(value, type)
                and getattr(value, "__module__", None) == transforms.__name__
            ):
                wrappers[value] = self._plain(TRANSFORMS, value)
        for original, replacement in wrappers.items():
            self._replace_everywhere(original, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- per-pass results ------------------------------------------------------

    def take(self) -> dict:
        """Per-layer metrics of the spans recorded since the last call."""
        if self._open:
            raise RuntimeError(f"{len(self._open)} spans still open")
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_s[span.parent] += span.end - span.start
        self_s = Counter()
        calls = Counter()
        for span, children in zip(self.spans, child_s):
            self_s[span.name] += span.end - span.start - children
            calls[span.name] += 1
        distinct = len(self._hamiltonians)
        metrics = {
            "lattice.build_hamiltonian.calls": calls[BUILD],
            "lattice.build_hamiltonian.s": self_s[BUILD],
            "dynamics.expm.calls": calls[EXPM],
            "dynamics.expm.s": self_s[EXPM],
            "dynamics.expm.per_hamiltonian": calls[EXPM] / distinct if distinct else 0.0,
            "dynamics.expm.n3_sum": self.counts["dynamics.expm.n3_sum"],
            "dynamics.propagate.steps": calls[STEP],
            "dynamics.propagate.s": self_s[PROPAGATE],
            "dynamics.density.steps": self.counts["dynamics.density.steps"],
            "dynamics.density.s": self_s[DENSITY],
            "dynamics.transit_metrics.calls": calls[TRANSIT],
            "dynamics.transit_metrics.s": self_s[TRANSIT],
            "dynamics.write_frames_csv.s": self_s[FRAMES_CSV],
            "dynamics.write_frames_csv.bytes": self.counts["dynamics.write_frames_csv.bytes"],
            "scattering.sweep_rows.rows": self.counts["scattering.sweep_rows.rows"],
            "scattering.sweep_rows.s": self_s[SWEEP],
            "transforms.calls": calls[TRANSFORMS],
            "transforms.s": self_s[TRANSFORMS],
            "experiments.run_scenario.self_s": self_s[ROOT],
            "experiments.output.bytes": self.counts["experiments.output.bytes"],
        }
        self._reset()
        return metrics
