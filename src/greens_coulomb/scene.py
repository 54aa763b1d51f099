"""Scene files: a single JSON document describing geometry, charges, options.

The schema is strict: unknown keys anywhere are rejected, so typos fail
loudly instead of silently computing the wrong thing. Charges may be given
in coulombs or elementary-charge units; everything is stored in SI.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Optional, Tuple

from . import screening
from .core import (
    ELEMENTARY_CHARGE,
    PERFECT_CONDUCTOR,
    Charge,
    CoulombError,
    FreeSpace,
    Geometry,
    HalfSpace,
    PlateWithHole,
    Point3,
    QuadratureSpec,
    SceneError,
    ThreeLayerCavity,
)


def _require_keys(obj: dict, where: str, required: Tuple[str, ...],
                  optional: Tuple[str, ...] = ()) -> None:
    if not isinstance(obj, dict):
        raise SceneError(f"{where}: expected an object, got {type(obj).__name__}")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise SceneError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise SceneError(f"{where}: missing keys {sorted(missing)}")


def _number(obj, where: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise SceneError(f"{where}: expected a number, got {obj!r}")
    try:
        value = float(obj)
    except OverflowError:  # an integer beyond float64
        value = math.inf
    if not math.isfinite(value):
        raise SceneError(f"{where}: must be finite, got {obj!r}")
    return value


def _eps(obj, where: str):
    if obj == "conductor":
        return PERFECT_CONDUCTOR
    return _number(obj, where)


def _parse_geometry(obj: dict) -> Geometry:
    _require_keys(obj, "geometry", ("type",),
                  ("eps", "eps1", "eps2", "eps3", "d", "R", "drude",
                   "alpha", "background_eps", "half_space_eta", "regions"))
    kind = obj.get("type")
    try:
        if kind == "free_space":
            _require_keys(obj, "geometry", ("type",), ("eps",))
            return FreeSpace(eps=_number(obj.get("eps", 1.0), "geometry.eps"))
        if kind == "half_space":
            _require_keys(obj, "geometry", ("type", "eps1", "eps2"), ())
            return HalfSpace(_eps(obj["eps1"], "geometry.eps1"),
                             _eps(obj["eps2"], "geometry.eps2"))
        if kind == "cavity":
            _require_keys(obj, "geometry", ("type", "eps1", "eps2", "eps3", "d"), ())
            return ThreeLayerCavity(_eps(obj["eps1"], "geometry.eps1"),
                                    _number(obj["eps2"], "geometry.eps2"),
                                    _eps(obj["eps3"], "geometry.eps3"),
                                    _number(obj["d"], "geometry.d"))
        if kind == "plate_with_hole":
            _require_keys(obj, "geometry", ("type", "R"), ())
            return PlateWithHole(R=_number(obj["R"], "geometry.R"))
        if kind == "nonlocal_bulk":
            _require_keys(obj, "geometry", ("type", "drude"), ())
            dr = obj["drude"]
            _require_keys(dr, "geometry.drude", ("omega_p", "omega_p_bound", "omega_0", "beta"))
            return screening.NonlocalBulk(screening.DrudeStatic(
                omega_p=_number(dr["omega_p"], "drude.omega_p"),
                omega_p_bound=_number(dr["omega_p_bound"], "drude.omega_p_bound"),
                omega_0=_number(dr["omega_0"], "drude.omega_0"),
                beta=_number(dr["beta"], "drude.beta")))
        if kind == "dilute_body":
            from . import born  # numpy holds its tensor; no other geometry loads it
            _require_keys(obj, "geometry", ("type", "alpha"),
                          ("background_eps", "half_space_eta", "regions"))
            alpha = obj["alpha"]
            if not isinstance(alpha, list):
                tensor = born.PolarizabilityTensor.isotropic(
                    _number(alpha, "geometry.alpha"))
            else:
                if not (len(alpha) == 3 and all(
                        isinstance(row, list) and len(row) == 3 for row in alpha)):
                    raise SceneError("geometry.alpha: expected a number or a 3x3 matrix")
                tensor = born.PolarizabilityTensor.from_matrix(
                    [[_number(v, f"geometry.alpha[{i}][{j}]") for j, v in enumerate(row)]
                     for i, row in enumerate(alpha)])
            regions = []
            for i, reg in enumerate(obj.get("regions", [])):
                _require_keys(reg, f"geometry.regions[{i}]", ("box", "eta"), ())
                box = reg["box"]
                if not (isinstance(box, list) and len(box) == 6):
                    raise SceneError(f"geometry.regions[{i}].box: expected 6 numbers")
                vals = [_number(v, f"geometry.regions[{i}].box[{j}]")
                        for j, v in enumerate(box)]
                regions.append(born.DensityRegion(
                    born.Box(*vals), _number(reg["eta"], f"geometry.regions[{i}].eta")))
            hs_eta = obj.get("half_space_eta")
            return born.DiluteBody(
                alpha=tensor, regions=tuple(regions),
                half_space_eta=None if hs_eta is None else _number(
                    hs_eta, "geometry.half_space_eta"),
                background_eps=_number(obj.get("background_eps", 1.0),
                                       "geometry.background_eps"))
    except CoulombError:
        raise
    except (TypeError, ValueError) as exc:
        raise SceneError(f"geometry: {exc}") from exc
    raise SceneError(f"geometry.type: unknown geometry {kind!r}")


def _parse_charge(obj: dict, where: str) -> Charge:
    _require_keys(obj, where, ("q", "position"), ("unit",))
    unit = obj.get("unit", "C")
    if unit not in ("C", "e"):
        raise SceneError(f"{where}.unit: must be 'C' or 'e', got {unit!r}")
    q = _number(obj["q"], f"{where}.q")
    if unit == "e":
        q *= ELEMENTARY_CHARGE
    pos = obj["position"]
    if not (isinstance(pos, list) and len(pos) == 3):
        raise SceneError(f"{where}.position: expected [x, y, z]")
    xyz = [_number(v, f"{where}.position[{i}]") for i, v in enumerate(pos)]
    return Charge(q, Point3(*xyz))


@dataclass(frozen=True)
class SceneOptions:
    local_field: bool = False
    rel_tol: Optional[float] = None
    abs_tol: Optional[float] = None

    def quad_spec(self) -> QuadratureSpec:
        base = QuadratureSpec()
        return QuadratureSpec(
            rel_tol=self.rel_tol if self.rel_tol is not None else base.rel_tol,
            abs_tol=self.abs_tol if self.abs_tol is not None else base.abs_tol)


@dataclass(frozen=True)
class Scene:
    geometry: Geometry
    charges: Tuple[Charge, ...]
    options: SceneOptions = field(default_factory=SceneOptions)


def _parse_options(opts_doc) -> SceneOptions:
    _require_keys(opts_doc, "options", (),
                  ("local_field", "units", "rel_tol", "abs_tol"))
    # results are always SI; the key stays so that scenes may say so
    if opts_doc.get("units", "si") != "si":
        raise SceneError(f"options.units: must be 'si', got {opts_doc['units']!r}")
    lf = opts_doc.get("local_field", False)
    if not isinstance(lf, bool):
        raise SceneError("options.local_field: must be true or false")
    rel_tol = opts_doc.get("rel_tol")
    abs_tol = opts_doc.get("abs_tol")
    if rel_tol is not None:
        rel_tol = _number(rel_tol, "options.rel_tol")
    if abs_tol is not None:
        abs_tol = _number(abs_tol, "options.abs_tol")
    return SceneOptions(local_field=lf, rel_tol=rel_tol, abs_tol=abs_tol)


def parse_scene(doc: dict) -> Scene:
    _require_keys(doc, "scene", ("geometry", "charges"), ("options",))
    geometry = _parse_geometry(doc["geometry"])
    charges_doc = doc["charges"]
    if not (isinstance(charges_doc, list) and 1 <= len(charges_doc) <= 2):
        raise SceneError("charges: expected a list of 1 or 2 charges")
    charges = tuple(_parse_charge(c, f"charges[{i}]")
                    for i, c in enumerate(charges_doc))
    options = _parse_options(doc.get("options", {}))
    return Scene(geometry=geometry, charges=charges, options=options)


def read_scene_doc(path):
    """The raw JSON document of a scene file; unreadable or invalid JSON is a SceneError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SceneError(f"cannot read scene file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SceneError(f"scene file is not valid JSON: {exc}") from exc


def load_scene(path) -> Scene:
    return parse_scene(read_scene_doc(path))


def swept_scenes(doc: dict, scene: Scene, path: str,
                 values: Iterable[float]) -> Iterator[Scene]:
    """The scene of the document `doc`, whose parse is `scene`, with the
    number at a dotted path (list indices are numeric path elements) set to
    each of `values` in turn.

    Each value is written into one working copy of the document, and only
    the top-level section that holds the path, the geometry, one charge or
    the options, is parsed again, with the checks and messages of
    parse_scene; the other sections are those of `scene`. A path that
    addresses no number raises SceneError before the first scene.
    """
    work = copy.deepcopy(doc)
    parts = path.split(".")
    node = work
    try:
        for key in parts[:-1]:
            node = node[int(key)] if isinstance(node, list) else node[key]
        leaf = int(parts[-1]) if isinstance(node, list) else parts[-1]
        found = node[leaf]
    except (KeyError, IndexError, ValueError, TypeError) as exc:
        raise SceneError(f"sweep path {path!r} not found in scene: {exc}") from exc
    if not _is_number(found):
        raise SceneError(f"sweep path {path!r} does not address a number")
    # a path to a number lies inside a section: the document has no other keys
    if parts[0] == "charges":
        i = int(parts[1]) % len(scene.charges)
    for value in values:
        node[leaf] = value
        if parts[0] == "geometry":
            yield replace(scene, geometry=_parse_geometry(work["geometry"]))
        elif parts[0] == "options":
            yield replace(scene, options=_parse_options(work["options"]))
        else:
            charges = list(scene.charges)
            charges[i] = _parse_charge(work["charges"][i], f"charges[{i}]")
            yield replace(scene, charges=tuple(charges))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)
