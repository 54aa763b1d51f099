"""Per-layer tracing from outside the program.

The traced run replaces the public functions of each layer with wrappers
that record one span per call: name, start, end, parent span, the operation
it serves and the work it was handed (nodes, grid cells). Copies a module
imported by name are wrapped too, so calls that bypass the defining module
are seen. Spans stay in memory and are written out once, after the run;
`layer_metrics` turns them into counts and self times per round.

A name the program no longer has is skipped, and the metrics built on it
are reported absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import time
from array import array
from pathlib import Path

import numpy as np


def _n_nodes(args, kwargs):
    return len(args[0])


def _grid_cells(args, kwargs):
    grid = args[2] if len(args) > 2 else kwargs["grid"]
    return grid.n_rho * grid.n_z


# (module, attribute path, span name, work counter)
TARGETS = [
    ("greens_coulomb.cli", "main", "cli.main", None),
    ("greens_coulomb.scene", "parse_scene", "scene.parse_scene", None),
    ("greens_coulomb.cli", "parse_scene", "scene.parse_scene", None),
    ("greens_coulomb.interactions", "pair_energy", "interactions.pair_energy", None),
    ("greens_coulomb.interactions", "self_energy", "interactions.self_energy", None),
    ("greens_coulomb.interactions", "force_on_A", "interactions.force_on_A", None),
    ("greens_coulomb.cavity", "cavity_g_general", "cavity.cavity_g_general", None),
    ("greens_coulomb.cavity", "cavity_scattering_g1", "cavity.cavity_scattering_g1", None),
    ("greens_coulomb.quadrature", "hankel_integral", "quadrature.hankel_integral", None),
    ("greens_coulomb.cavity", "hankel_integral", "quadrature.hankel_integral", None),
    ("greens_coulomb.kernels", "cavity_integrand", "kernels.cavity_integrand", _n_nodes),
    ("greens_coulomb.kernels", "cavity_scatter_integrand", "kernels.cavity_scatter_integrand",
     _n_nodes),
    ("greens_coulomb.kernels", "hole_greens", "kernels.hole_greens", None),
    ("greens_coulomb.kernels", "alpha_chain_sum", "kernels.alpha_chain_sum", _n_nodes),
    ("greens_coulomb.analytic", "plate_hole_g", "analytic.plate_hole_g", None),
    ("greens_coulomb.born", "born_scattering_g1", "born.born_scattering_g1", None),
    ("greens_coulomb.born", "charge_body_energy", "born.charge_body_energy", None),
    ("greens_coulomb.poisson_fd", "solve_scattering_g1", "poisson_fd.solve_scattering_g1",
     _grid_cells),
    ("greens_coulomb.poisson_fd", "spla.spsolve", "poisson_fd.spsolve", None),
]

# name -> (unit, better, span names it needs)
PER_LAYER = {
    "cli.sweep_frontend_s": ("s", "lower", ["cli.main"]),
    "scene.parse_scene_calls": ("count", "lower", ["scene.parse_scene"]),
    "scene.parse_scene_s": ("s", "lower", ["scene.parse_scene"]),
    "interactions.pair_energy_calls": ("count", "lower", ["interactions.pair_energy"]),
    "interactions.self_energy_calls": ("count", "lower", ["interactions.self_energy"]),
    "interactions.force_on_A_calls": ("count", "lower", ["interactions.force_on_A"]),
    "interactions.energy_evals_per_force": ("ratio", "lower", ["interactions.force_on_A"]),
    "interactions.force_self_s": ("s", "lower", ["interactions.force_on_A"]),
    "cavity.cavity_g_general_calls": ("count", "lower", ["cavity.cavity_g_general"]),
    "cavity.cavity_g_general_s": ("s", "lower", ["cavity.cavity_g_general"]),
    "cavity.cavity_scattering_g1_calls": ("count", "lower", ["cavity.cavity_scattering_g1"]),
    "cavity.cavity_scattering_g1_s": ("s", "lower", ["cavity.cavity_scattering_g1"]),
    "quadrature.hankel_integral_calls": ("count", "lower", ["quadrature.hankel_integral"]),
    "quadrature.hankel_integral_s": ("s", "lower", ["quadrature.hankel_integral"]),
    "quadrature.hankel_self_s": ("s", "lower", ["quadrature.hankel_integral"]),
    "kernels.cavity_integrand_calls": ("count", "lower", ["kernels.cavity_integrand"]),
    "kernels.cavity_integrand_nodes": ("count", "lower", ["kernels.cavity_integrand"]),
    "kernels.cavity_integrand_s": ("s", "lower", ["kernels.cavity_integrand"]),
    "kernels.cavity_scatter_integrand_calls": ("count", "lower",
                                               ["kernels.cavity_scatter_integrand"]),
    "kernels.cavity_scatter_integrand_nodes": ("count", "lower",
                                               ["kernels.cavity_scatter_integrand"]),
    "kernels.cavity_scatter_integrand_s": ("s", "lower", ["kernels.cavity_scatter_integrand"]),
    "kernels.gap_nodes_per_call": ("count", "higher", ["kernels.cavity_integrand",
                                                       "kernels.cavity_scatter_integrand"]),
    "kernels.hole_greens_calls": ("count", "lower", ["kernels.hole_greens"]),
    "kernels.hole_greens_s": ("s", "lower", ["kernels.hole_greens"]),
    "kernels.alpha_chain_sum_calls": ("count", "lower", ["kernels.alpha_chain_sum"]),
    "kernels.alpha_chain_sum_nodes": ("count", "lower", ["kernels.alpha_chain_sum"]),
    "kernels.alpha_chain_sum_s": ("s", "lower", ["kernels.alpha_chain_sum"]),
    "analytic.plate_hole_g_calls": ("count", "lower", ["analytic.plate_hole_g"]),
    "analytic.plate_hole_g_s": ("s", "lower", ["analytic.plate_hole_g"]),
    "born.born_scattering_g1_calls": ("count", "lower", ["born.born_scattering_g1"]),
    "born.born_scattering_g1_s": ("s", "lower", ["born.born_scattering_g1"]),
    "born.charge_body_energy_calls": ("count", "lower", ["born.charge_body_energy"]),
    "born.charge_body_energy_s": ("s", "lower", ["born.charge_body_energy"]),
    "born.octree_self_s": ("s", "lower", ["born.born_scattering_g1",
                                          "born.charge_body_energy"]),
    "born.cells_per_eval": ("count", "lower", ["born.born_scattering_g1",
                                               "kernels.alpha_chain_sum"]),
    "poisson_fd.solve_calls": ("count", "lower", ["poisson_fd.solve_scattering_g1"]),
    "poisson_fd.cells": ("count", "higher", ["poisson_fd.solve_scattering_g1"]),
    "poisson_fd.solve_s": ("s", "lower", ["poisson_fd.solve_scattering_g1"]),
    "poisson_fd.spsolve_s": ("s", "lower", ["poisson_fd.spsolve"]),
    "poisson_fd.assembly_s": ("s", "lower", ["poisson_fd.solve_scattering_g1",
                                             "poisson_fd.spsolve"]),
    "trace.overhead_pct": ("%", "lower", []),
}


class Tracer:
    """Wraps the TARGETS while installed; records spans while `active`."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.names: list = []
        self._ids: dict = {}
        self._stack: list = []
        self._saved: list = []
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.size = array("q")
        self.start = array("d")
        self.end = array("d")
        self.absent: set = set()

    def _wrap(self, fn, nid, size_of):
        stack, clock = self._stack, time.perf_counter
        name_id, parent, op_id, size = self.name_id, self.parent, self.op_id, self.size
        start, end = self.start, self.end

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op_id.append(self.op)
            size.append(size_of(args, kwargs) if size_of else 0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module, path, span, size_of in TARGETS:
            holder = importlib.import_module(module)
            *parents, attr = path.split(".")
            for part in parents:
                holder = getattr(holder, part, None)
            fn = getattr(holder, attr, None) if holder is not None else None
            if fn is None:
                self.absent.add(span)
                continue
            nid = self._ids.setdefault(span, len(self.names))
            if nid == len(self.names):
                self.names.append(span)
            self._saved.append((holder, attr, fn))
            setattr(holder, attr, self._wrap(fn, nid, size_of))
        # a name wrapped in one module but missing in another is still seen
        self.absent -= set(self.names)

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._saved):
            setattr(holder, attr, fn)
        self._saved.clear()

    def spans(self) -> dict:
        return {"names": np.array(self.names), "name_id": np.frombuffer(self.name_id, np.int32),
                "parent": np.frombuffer(self.parent, np.int32),
                "op": np.frombuffer(self.op_id, np.int32),
                "size": np.frombuffer(self.size, np.int64),
                "start": np.frombuffer(self.start, np.float64),
                "end": np.frombuffer(self.end, np.float64)}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, **self.spans())


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """Per-round counts and self times of every layer in PER_LAYER."""
    s = tracer.spans()
    names = list(s["names"])
    nid, parent = s["name_id"], s["parent"]
    dur = s["end"] - s["start"]
    n = dur.size
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child_time

    def mask(span):
        return nid == names.index(span) if span in names else np.zeros(n, bool)

    def count(span):
        return int(np.count_nonzero(mask(span)))

    def secs(span, values=dur):
        return float(np.sum(values[mask(span)]))

    def nodes(span):
        return int(np.sum(s["size"][mask(span)]))

    def children_of(parent_span, child_spans):
        """Mask of spans named in child_spans whose parent is a parent_span span."""
        m = np.zeros(n, bool)
        for c in child_spans:
            m |= mask(c)
        parent_ok = np.zeros(n, bool)
        pm = mask(parent_span)
        parent_ok[has_parent] = pm[parent[has_parent]]
        return m & parent_ok

    energy = ["interactions.pair_energy", "interactions.self_energy"]
    in_force = children_of("interactions.force_on_A", energy)
    forces_with_evals = np.unique(parent[in_force]).size
    gap_calls = count("kernels.cavity_integrand") + count("kernels.cavity_scatter_integrand")
    gap_nodes = nodes("kernels.cavity_integrand") + nodes("kernels.cavity_scatter_integrand")
    born_evals = count("born.born_scattering_g1")

    def ratio(a, b):
        return a / b if b else 0.0

    values = {
        "cli.sweep_frontend_s": secs("cli.main")
        - float(np.sum(dur[children_of("cli.main", energy)])),
        "scene.parse_scene_calls": count("scene.parse_scene"),
        "scene.parse_scene_s": secs("scene.parse_scene"),
        "interactions.pair_energy_calls": count("interactions.pair_energy"),
        "interactions.self_energy_calls": count("interactions.self_energy"),
        "interactions.force_on_A_calls": count("interactions.force_on_A"),
        "interactions.energy_evals_per_force": ratio(int(np.count_nonzero(in_force)),
                                                     forces_with_evals),
        "interactions.force_self_s": secs("interactions.force_on_A", self_time),
        "quadrature.hankel_self_s": secs("quadrature.hankel_integral", self_time),
        "kernels.gap_nodes_per_call": ratio(gap_nodes, gap_calls),
        "born.octree_self_s": secs("born.born_scattering_g1", self_time)
        + secs("born.charge_body_energy", self_time),
        "born.cells_per_eval": ratio(count("kernels.alpha_chain_sum"), born_evals),
        "poisson_fd.solve_calls": count("poisson_fd.solve_scattering_g1"),
        "poisson_fd.cells": nodes("poisson_fd.solve_scattering_g1"),
        "poisson_fd.solve_s": secs("poisson_fd.solve_scattering_g1"),
        "poisson_fd.spsolve_s": secs("poisson_fd.spsolve"),
        "poisson_fd.assembly_s": secs("poisson_fd.solve_scattering_g1", self_time),
    }
    for span in ("cavity.cavity_g_general", "cavity.cavity_scattering_g1",
                 "quadrature.hankel_integral", "kernels.cavity_integrand",
                 "kernels.cavity_scatter_integrand", "kernels.hole_greens",
                 "kernels.alpha_chain_sum", "analytic.plate_hole_g",
                 "born.born_scattering_g1", "born.charge_body_energy"):
        values[f"{span}_calls"] = count(span)
        values[f"{span}_s"] = secs(span)
    for span in ("kernels.cavity_integrand", "kernels.cavity_scatter_integrand",
                 "kernels.alpha_chain_sum"):
        values[f"{span}_nodes"] = nodes(span)

    per_round = {}
    for name, value in values.items():
        unit, _, needs = PER_LAYER[name]
        if any(span in tracer.absent for span in needs):
            continue
        # ratios are per call already; counts and times are divided by rounds
        per_round[name] = value if unit == "ratio" or name.endswith("_per_call") \
            or name.endswith("_per_eval") else value / rounds
    return per_round
