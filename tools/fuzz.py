"""A seeded fuzzer of the command line: every scene must end in a defined outcome.

    PYTHONPATH=src python tools/fuzz.py [--seed S] [--scenes N]

Each scene is drawn from `random.Random(seed)`: one of the six geometry
types, its lengths and permittivities among ordinary, tiny (down to
subnormal) and huge (up to 1e300) numbers, conducting walls, charges of 0
to 1e30 e, and rel_tol and abs_tol options. Every scene holds two charges
near its geometry's length scale; it is run through `greens_coulomb.cli.main`
in process as `pair-energy`, as `self-energy` of its first charge, and as
`force` on the pair or on the first charge alone, each call with warnings
as errors and a 20 s alarm. Every SWEEP_EVERY-th scene is also swept
(`sweep`): one charge coordinate, the geometry's length, a permittivity or
`options.rel_tol`, between bounds that are ordinary, tiny or huge, at times
equal or reversed, at --num 1, 2, 5 or 17, at times --log; its draws come
from a second generator, so that the scenes of a seed are the same with or
without them. A call breaks the rules where:

* its exit code is not 0, 2 or 3;
* an exception leaves `main` (the alarm's included);
* its stdout is not JSON, with NaN and Infinity refused;
* an exit-0 energy record has an abs_err that is not finite;
* an exit-0 sweep's CSV does not hold --num rows with its parameter
  ascending, from exactly the lower bound to exactly the upper one (a
  single row: --min), each with a finite U and abs_err and a finite or
  empty ratio_to_free.

`main` prints each broken rule with its command and scene, and returns 1
where it found any.
"""

import argparse
import contextlib
import io
import json
import math
import os
import random
import signal
import sys
import tempfile
import warnings

from greens_coulomb.cli import main as cli_main

ALARM_S = 20
TINY = (5e-324, 1e-320, 1e-300, 1e-160)
HUGE = (1e150, 1e300)
EPS = (1.0, 2.0, 4.0, 80.0, 1e3, 1e6, 1e14, 1e17, 1e300, "conductor")
CHARGES_E = (1.0, -1.0, 0.0, 1e30, -2.5, 1e-30)
REL_TOLS = (1e-15, 1e-12, 1e-6, 0.1, 1.0)
ABS_TOLS = (0.0, 1e-300, 1e-30, 1.0, 1e300)


class _Alarm(Exception):
    """A call ran past ALARM_S seconds."""


def _number(rng, scale=1.0):
    """scale times an ordinary factor, or a tiny or huge number in its place."""
    u = rng.random()
    if u < 0.1:
        return rng.choice(TINY)
    if u < 0.15:
        return rng.choice(HUGE)
    x = scale * 10.0 ** rng.uniform(-2.0, 2.0)
    return x if math.isfinite(x) else 1e300


def _eps(rng):
    return rng.choice(EPS) if rng.random() < 0.5 else 1.0 + 10.0 ** rng.uniform(-3.0, 3.0)


def _finite(x):
    return x if math.isfinite(x) else math.copysign(1e300, x)


def _geometry(rng):
    """(geometry document, length scale L, draws of a charge's height) of one scene."""
    kind = rng.choice(("free_space", "half_space", "cavity", "plate_with_hole",
                       "nonlocal_bulk", "dilute_body"))
    length = rng.choice((1e-9, 1e-6, 1.0)) if rng.random() < 0.8 else _number(rng)
    if kind == "free_space":
        return {"type": kind, "eps": _eps(rng) if rng.random() < 0.8 else 1.0}, length, None
    if kind == "half_space":
        return {"type": kind, "eps1": _eps(rng), "eps2": _eps(rng)}, length, None
    if kind == "cavity":
        eps2 = rng.choice(EPS[:-1]) if rng.random() < 0.5 else 1.0 + 10.0 ** rng.uniform(-3, 3)
        doc = {"type": kind, "eps1": _eps(rng), "eps2": eps2, "eps3": _eps(rng), "d": length}

        def height():
            # anywhere in the gap, or next to a wall
            if rng.random() < 0.6:
                return rng.uniform(-0.45, 0.45) * length
            return rng.choice((-1.0, 1.0)) * (0.5 - 10.0 ** rng.uniform(-12.0, -1.0)) * length

        return doc, length, height
    if kind == "plate_with_hole":
        return {"type": kind, "R": length}, length, None
    if kind == "nonlocal_bulk":
        drude = {"omega_p": _number(rng, 1e16) if rng.random() < 0.9 else 0.0,
                 "omega_p_bound": _number(rng, 1e16) if rng.random() < 0.9 else 0.0,
                 "omega_0": _number(rng, 1e16), "beta": _number(rng, 1e6)}
        return {"type": kind, "drude": drude}, length, None
    alpha = _number(rng, 1e-40)
    if rng.random() < 0.3:
        alpha = [[alpha, 0.1 * alpha, 0.0], [0.1 * alpha, alpha, 0.0], [0.0, 0.0, 2.0 * alpha]]
    doc = {"type": kind, "alpha": alpha}
    if rng.random() < 0.3:
        doc["background_eps"] = rng.choice((1.0, 2.0, 1e200, 1e300))
    if rng.random() < 0.4:
        doc["half_space_eta"] = _number(rng, 1e27)
    if "half_space_eta" not in doc or rng.random() < 0.4:
        side = _finite(length)
        doc["regions"] = [{"box": [-side, side, -side, side, -2.0 * side, -side],
                           "eta": _number(rng, 1e27)}]
    if "half_space_eta" not in doc:
        return doc, length, None
    # above the half-space, which fills z <= 0
    return doc, length, lambda: rng.uniform(0.05, 3.0) * length


def scene(rng):
    """One scene document, with two charges."""
    geometry, length, height = _geometry(rng)

    def coord():
        u = rng.random()
        if u < 0.15:
            return 0.0
        if u < 0.25:
            return rng.choice(TINY) * rng.choice((-1.0, 1.0))
        return _finite(rng.uniform(-2.0, 2.0) * length)

    charges = []
    for _ in range(2):
        z = height() if height else coord()
        # on the axis now and then, where the aperture's self-terms are defined
        xy = [0.0, 0.0] if rng.random() < 0.3 else [coord(), coord()]
        q = rng.choice(CHARGES_E)
        charges.append({"q": q, "unit": "e", "position": [*xy, _finite(z)]})
    doc = {"geometry": geometry, "charges": charges}
    options = {}
    if rng.random() < 0.3:
        options["rel_tol"] = rng.choice(REL_TOLS)
    if rng.random() < 0.3:
        options["abs_tol"] = rng.choice(ABS_TOLS)
    if options:
        doc["options"] = options
    return doc


# a sweep of every third scene keeps 1,500 scenes near half a minute
SWEEP_EVERY = 3
SWEEP_NUMS = (1, 2, 5, 17)
CSV_HEADER = "param,U,ratio_to_free,abs_err"


def sweep(rng, doc):
    """(argv after the scene, (--min, --max, --num)) of one sweep of doc."""
    geometry = doc["geometry"]
    kinds = [[f"charges.{i}.position.{j}" for i in range(len(doc["charges"])) for j in range(3)],
             [f"geometry.{k}" for k in ("d", "R") if k in geometry],
             [f"geometry.{k}" for k in ("eps", "eps1", "eps2", "eps3", "background_eps")
              if isinstance(geometry.get(k), float)],
             ["options.rel_tol"] if "rel_tol" in doc.get("options", {}) else []]
    path = rng.choice(rng.choice([kind for kind in kinds if kind]))
    node = doc
    for key in path.split("."):
        node = node[int(key)] if isinstance(node, list) else node[key]
    # a coordinate's ordinary bounds lie within the charges' extent, as
    # scene() draws them; another number's, about its own value
    extent = max(abs(x) for charge in doc["charges"] for x in charge["position"])

    def bound():
        if not path.startswith("charges"):
            return _number(rng, node)
        u = rng.random()
        return (rng.choice(TINY) if u < 0.1 else rng.choice(HUGE) if u < 0.15
                else rng.uniform(-1.0, 1.0) * extent) * rng.choice((-1.0, 1.0))

    lo = bound()
    hi = lo if rng.random() < 0.2 else bound()
    lo, hi = (max(lo, hi), min(lo, hi)) if rng.random() < 0.15 else (min(lo, hi), max(lo, hi))
    num = rng.choice(SWEEP_NUMS)
    argv = ["--param", path, "--min", repr(lo), "--max", repr(hi), "--num", str(num)]
    return argv + ["--log"] * (rng.random() < 0.4), (lo, hi, num)


def _reject(name):
    raise ValueError(f"{name} is not JSON")


def run(argv):
    """(exit code or None, stdout, stderr, the exception that left main or None)
    of one call."""
    def alarm(signum, frame):
        raise _Alarm(f"no result after {ALARM_S} s")

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, alarm)
    signal.alarm(ALARM_S)
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            return cli_main(argv), out.getvalue(), err.getvalue(), None
    except BaseException as exc:  # noqa: BLE001 - whatever leaves main is a finding
        return None, out.getvalue(), err.getvalue(), exc
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def broken_rules(command, code, stdout, exc, swept=None):
    """The rules one call broke, each a line of text; `swept` is a sweep's
    (--min, --max, --num)."""
    if exc is not None:
        return [f"{type(exc).__name__} left main: {exc}"]
    found = []
    if code not in (0, 2, 3):
        found.append(f"exit code {code}")
    if code == 0 and command == "sweep":
        found += _broken_csv_rules(stdout, *swept)
    elif code == 0:
        try:
            rec = json.loads(stdout, parse_constant=_reject)
        except ValueError as exc:
            return found + [f"stdout is not JSON: {exc}: {stdout!r}"]
        if command != "force" and not math.isfinite(rec.get("abs_err", math.nan)):
            found.append(f"abs_err {rec.get('abs_err')!r} is not finite")
    return found


def _broken_csv_rules(stdout, lo, hi, num):
    """The rules an exit-0 sweep's CSV broke, for the bounds lo and hi and
    --num num."""
    lines = stdout.splitlines()
    if lines[:1] != [CSV_HEADER]:
        return [f"CSV header {lines[:1]!r}"]
    try:
        rows = [[float(x) if x else None for x in line.split(",")] for line in lines[1:]]
    except ValueError as exc:
        return [f"CSV row not numbers: {exc}"]
    if any(len(row) != 4 for row in rows):
        return ["CSV row of other than 4 columns"]
    found = []
    if len(rows) != num:
        found.append(f"{len(rows)} rows for --num {num}")
    params = [row[0] for row in rows]
    if params != sorted(params):
        found.append(f"parameter column not ascending: {params!r}")
    ends = [lo] if num == 1 else [min(lo, hi), max(lo, hi)]
    if rows and params[:1] + params[1:][-1:] != ends:
        found.append(f"first and last rows {params[:1] + params[1:][-1:]!r}, not {ends!r}")
    for param, u, ratio, err in rows:
        if u is None or err is None or not (math.isfinite(u) and math.isfinite(err)):
            found.append(f"U {u!r} or abs_err {err!r} not finite at {param!r}")
        if ratio is not None and not math.isfinite(ratio):
            found.append(f"ratio_to_free {ratio!r} not finite at {param!r}")
    return found


def fuzz(seed, scenes):
    """The broken rules of `scenes` scenes drawn from seed, each (command, scene, rule)."""
    rng, sweep_rng = random.Random(seed), random.Random(f"sweep {seed}")
    found = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scene.json")
        for i in range(scenes):
            doc = scene(rng)
            alone = {**doc, "charges": doc["charges"][:1]}
            calls = [("pair-energy", doc, [], None), ("self-energy", alone, [], None),
                     ("force", doc if rng.random() < 0.5 else alone, [], None)]
            if i % SWEEP_EVERY == 0:
                calls.append(("sweep", doc, *sweep(sweep_rng, doc)))
            for command, scene_doc, extra, swept in calls:
                with open(path, "w") as fh:
                    json.dump(scene_doc, fh)
                code, stdout, _, exc = run([command, "--scene", path, *extra])
                found += [(" ".join([command, *extra]), scene_doc, rule)
                          for rule in broken_rules(command, code, stdout, exc, swept)]
    return found


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--scenes", type=int, default=100)
    args = ap.parse_args(argv)
    found = fuzz(args.seed, args.scenes)
    for command, doc, rule in found:
        print(f"{command}: {rule}\n  {json.dumps(doc)}")
    print(f"{len(found)} broken rules in {args.scenes} scenes of seed {args.seed}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
