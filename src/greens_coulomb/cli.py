"""Command-line front end.

Subcommands: pair-energy, self-energy, force, sweep, validate. Scenes are
JSON documents (see docs/scene_schema.json); results are single-line JSON
records or CSV sweeps with '.' decimals, byte-stable across runs.

Exit codes: 0 success, 1 validation failure, 2 bad input (schema, sweep
path, geometry domain, suite name), 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import replace
from itertools import groupby
from typing import Iterator

from . import interactions
from .core import ConvergenceError, CoulombError, DomainError, SceneError, until_error
from .scene import Scene, load_scene, parse_scene, read_scene_doc, swept_scenes


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _json_record(rec: dict) -> str:
    """A result record as JSON; a NaN or infinity in it is a DomainError (exit 2)."""
    try:
        return json.dumps(rec, allow_nan=False)
    except ValueError as exc:
        raise DomainError(f"result is not finite in float64: {rec!r}") from exc


def _with_args(scene: Scene, args) -> Scene:
    """The scene with the command line's --rel-tol applied."""
    if args.rel_tol is None:
        return scene
    return replace(scene, options=replace(scene.options, rel_tol=args.rel_tol))


def _scene_from_args(args) -> Scene:
    return _with_args(load_scene(args.scene), args)


def _energy_records(scenes) -> Iterator[dict]:
    """The energy record of each scene, in order. Consecutive scenes with one
    geometry object (a sweep that moves a charge keeps the scene's) and
    equal options are one batch, evaluated in one call
    (interactions.pair_energies or self_energies)."""
    for _, batch in groupby(scenes, lambda s: (id(s.geometry), s.options)):
        batch = list(batch)
        geometry, spec = batch[0].geometry, batch[0].options.quad_spec()
        charges = [s.charges for s in batch]
        if len(charges[0]) == 2:
            results = interactions.pair_energies(geometry, charges, spec)
        else:
            results = interactions.self_energies(geometry, [c[0] for c in charges], spec)
        for res in results:
            yield {"U_joules": res.energy, "ratio_to_free": res.ratio_to_free,
                   "abs_err": res.abs_err}


def cmd_pair_energy(args) -> int:
    scene = _scene_from_args(args)
    if len(scene.charges) != 2:
        raise SceneError("pair-energy needs a scene with exactly 2 charges")
    _emit(_json_record({**next(_energy_records([scene])), "units": "si"}), args.out)
    return 0


def cmd_self_energy(args) -> int:
    scene = _scene_from_args(args)
    if len(scene.charges) != 1:
        raise SceneError("self-energy needs a scene with exactly 1 charge")
    _emit(_json_record({**next(_energy_records([scene])), "units": "si"}), args.out)
    return 0


def cmd_force(args) -> int:
    scene = _scene_from_args(args)
    spec = scene.options.quad_spec()
    b = scene.charges[1] if len(scene.charges) == 2 else None
    res = interactions.force_on_A(scene.geometry, scene.charges[0], b,
                                  apply_local_field=args.local_field
                                  or scene.options.local_field, spec=spec)
    rec = {"F_newtons": [float(c) for c in res.force],
           "local_field_factor": res.local_field_factor_applied, "units": "si"}
    _emit(_json_record(rec), args.out)
    return 0


def _sweep_values(args) -> list:
    """The --num values of a sweep in ascending order, --min and --max
    exactly, every inner value within them (exp(log(x)) need not round
    back to x, so each is clamped into the bounds)."""
    if args.num < 1:
        raise SceneError("sweep needs --num >= 1")
    if args.num == 1:
        return [args.min]
    if args.log:
        if args.min <= 0 or args.max <= 0:
            raise SceneError("--log sweep needs positive bounds")
        start = math.log(args.min)
        step = (math.log(args.max) - start) / (args.num - 1)
        inner = [math.exp(start + i * step) for i in range(1, args.num - 1)]
    else:
        step = (args.max - args.min) / (args.num - 1)
        inner = [args.min + i * step for i in range(1, args.num - 1)]
    low, high = sorted((args.min, args.max))
    return sorted([args.min, *(min(max(v, low), high) for v in inner), args.max])


def cmd_sweep(args) -> int:
    """Energies along one swept number of the scene, as CSV rows.

    The scene is parsed once, and each point re-parses only the section
    that holds the swept number (scene.swept_scenes). Every point is parsed
    before any is evaluated, and the points that share a geometry and
    options, all of them unless the sweep changes those, are evaluated as
    one batch: the gap's image series sums them as arrays of points x
    orders, in blocks of at most cavity._IMAGE_BLOCK values. The sweep
    still stops at the first point, in sweep order, that fails to parse or
    to evaluate, with that point's error.
    """
    doc = read_scene_doc(args.scene)
    scene = parse_scene(doc)  # validate before sweeping
    values = _sweep_values(args)
    scenes, refused = until_error(_with_args(s, args)
                                  for s in swept_scenes(doc, scene, args.param, values))

    lines = ["param,U,ratio_to_free,abs_err"]
    for v, rec in zip(values, _energy_records(scenes)):
        if not all(x is None or math.isfinite(x) for x in rec.values()):
            raise DomainError(f"result is not finite in float64: {rec!r}")
        ratio = "" if rec["ratio_to_free"] is None else repr(rec["ratio_to_free"])
        lines.append(f"{v!r},{rec['U_joules']!r},{ratio},{rec['abs_err']!r}")
    if refused is not None:
        raise refused
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_validate(args) -> int:
    from . import validate  # here alone, so that no other command loads it
    results = validate.run_suite(args.suite)
    text = "\n".join(r.line() for r in results) + "\n"
    n_fail = sum(not r.passed for r in results)
    text += f"{len(results) - n_fail}/{len(results)} checks passed\n"
    _emit(text, args.out)
    return 0 if n_fail == 0 else 1


# argparse's stock negative-number detection misses scientific notation, so
# `sweep --min -5e-6` would be read as an unknown option; widen the matcher
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _accept_negative_numbers(parser: argparse.ArgumentParser) -> None:
    parser._negative_number_matcher = _NEGATIVE_NUMBER


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="greens-coulomb",
        description="Environment-modified Coulomb interactions from static "
                    "electrostatic Green's functions")
    _accept_negative_numbers(ap)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scene", required=True, help="scene JSON file")
        p.add_argument("--out", default=None, help="write the result here")
        p.add_argument("--rel-tol", dest="rel_tol", type=float, default=None)

    p = sub.add_parser("pair-energy", help="interaction energy of two charges")
    common(p)
    p.set_defaults(fn=cmd_pair_energy)

    p = sub.add_parser("self-energy", help="single-charge surface interaction")
    common(p)
    p.set_defaults(fn=cmd_self_energy)

    p = sub.add_parser("force", help="force on the first charge")
    common(p)
    p.add_argument("--local-field", dest="local_field", action="store_true",
                   help="apply the real-cavity local-field factor")
    p.set_defaults(fn=cmd_force)

    p = sub.add_parser("sweep", help="sweep one numeric scene parameter to CSV")
    _accept_negative_numbers(p)
    common(p)
    p.add_argument("--param", required=True,
                   help="dotted path, e.g. geometry.R or charges.1.position.2")
    p.add_argument("--min", type=float, required=True)
    p.add_argument("--max", type=float, required=True)
    p.add_argument("--num", type=int, required=True)
    p.add_argument("--log", action="store_true", help="logarithmic spacing")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("validate", help="run a validation suite")
    p.add_argument("suite", help="the suite to run; an unknown name lists them")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_validate)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConvergenceError as exc:
        print(f"error (numerical non-convergence): {exc}", file=sys.stderr)
        return 3
    except SceneError as exc:
        print(f"error (scene): {exc}", file=sys.stderr)
        return 2
    except CoulombError as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
