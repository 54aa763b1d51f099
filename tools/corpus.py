"""A seeded corpus of the program's values, to compare two versions of it.

    PYTHONPATH=src python tools/corpus.py dump OUT [--points N] [--only NAME,...]
    python tools/corpus.py compare PARENT CHANGE

`dump` writes one JSON line per entry: g, g1, grad_g and grad_g1 at seeded
points, and one g_many batch, for every row of `validate.table()` and for
gaps between the wall pairs of GAP_WALLS, reached only through the
package's public names. An entry holds its inputs and `float.hex` of every
value and abs_err, or the class and message of the error raised. The same
package gives the same bytes on every run; choose the version with
PYTHONPATH.

`compare` lists every entry that is not bit-identical, tagged with its
kind: outside the abs_err of PARENT's (a gradient carries none, so any
change of it), a change of error class, or another change (a message, or
a value within abs_err); and entries present in one file alone. It counts
the bit-identical entries, and exits 1 where it listed anything.
"""

import argparse
import json
import math
import random
import sys

PC = "PC"
# the walls (eps1, eps3) of the gaps, each at every eps2 of GAP_EPS2, and
# whole (eps1, eps2, eps3) triples
GAP_WALLS = [(PC, PC), (4.0, 8.0), (19.0, PC), (1e3, 1e3), (1.0, 1.0), (1.0, PC), (5.0, 1.0),
             (1e6, 1e6)]
GAP_EPS2 = (1.0, 10.0, 1e4)
GAP_TRIPLES = [(PC, 1e17, 1.0)]
REL_TOLS = (1e-10, 1e-6)


def _geometries():
    """(name, geometry, point drawer) of every geometry of the corpus."""
    from greens_coulomb import PERFECT_CONDUCTOR, Point3, ThreeLayerCavity, validate

    out = [(name, row.geom, row.point) for name, row in validate.table().items()]

    def gap_point(rng):
        # anywhere in the gap, or within 1e-10..1e-3 d of a wall
        if rng.random() < 0.5:
            z = rng.uniform(-0.45, 0.45)
        else:
            z = rng.choice((-1.0, 1.0)) * (0.5 - 10.0 ** rng.uniform(-10.0, -3.0))
        rho, phi = 10.0 ** rng.uniform(-2.0, math.log10(20.0)), rng.uniform(0.0, 2.0 * math.pi)
        return Point3(rho * math.cos(phi), rho * math.sin(phi), z)

    def eps(e):
        return PERFECT_CONDUCTOR if e == PC else e

    triples = [(e1, e2, e3) for e1, e3 in GAP_WALLS for e2 in GAP_EPS2] + GAP_TRIPLES
    for e1, e2, e3 in triples:
        out.append((f"gap_{e1}_{e2}_{e3}", ThreeLayerCavity(eps(e1), e2, eps(e3), 1.0),
                    gap_point))
    return out


def _outcome(fn):
    """fn()'s value as hex strings: a ValueWithError's value and abs_err, or
    a gradient's components; or the class and message of its error."""
    try:
        got = fn()
    except Exception as exc:  # every outcome is recorded, errors of any class too
        return {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(got, tuple):
        return {"value": [float(c).hex() for c in got]}
    return {"value": float(got.value).hex(), "abs_err": float(got.abs_err).hex()}


def _batch(values):
    """The outcomes of an iteration, up to the error that ends it."""
    out = []
    try:
        for got in values:
            out.append([float(got.value).hex(), float(got.abs_err).hex()])
    except Exception as exc:
        return {"values": out, "error": type(exc).__name__, "message": str(exc)}
    return {"values": out}


def entries(points: int = 6, only=None):
    """The corpus's entries, in order: each a dict of its inputs and outcome."""
    from greens_coulomb import QuadratureSpec

    def xyz(p):
        return [p.x.hex(), p.y.hex(), p.z.hex()]

    for name, geom, draw in _geometries():
        if only and name not in only:
            continue
        rng = random.Random(name)
        pairs = [(draw(rng), draw(rng)) for _ in range(points)]
        for rel_tol in REL_TOLS:
            spec = QuadratureSpec(rel_tol=rel_tol)
            key = {"geometry": name, "rel_tol": rel_tol}
            for a, b in pairs:
                for r, r_src in ((a, b), (b, a)):
                    for quantity in ("g", "grad_g"):
                        fn = getattr(geom, quantity)
                        yield {**key, "quantity": quantity, "inputs": [xyz(r), xyz(r_src)],
                               **_outcome(lambda: fn(r, r_src, spec))}
                for quantity in ("g1", "grad_g1"):
                    fn = getattr(geom, quantity)
                    yield {**key, "quantity": quantity, "inputs": [xyz(a)],
                           **_outcome(lambda: fn(a, spec))}
            yield {**key, "quantity": "g_many", "inputs": [[xyz(a), xyz(b)] for a, b in pairs],
                   **_batch(geom.g_many(pairs, spec))}


def dump(out: str, points: int = 6, only=None) -> int:
    with open(out, "w") as f:
        for entry in entries(points, only):
            f.write(json.dumps(entry, sort_keys=True) + "\n")
    return 0


def _key(entry):
    return json.dumps({k: entry[k] for k in ("geometry", "rel_tol", "quantity", "inputs")},
                      sort_keys=True)


def _load(path):
    with open(path) as f:
        return {_key(e): e for e in map(json.loads, f)}


def _values(entry):
    """[(value, abs_err)] of an entry's values, as floats: a gradient's
    components with abs_err 0, and a batch's values in order."""
    if "values" in entry:
        return [(float.fromhex(v), float.fromhex(e)) for v, e in entry["values"]]
    if "value" not in entry:
        return []
    if isinstance(entry["value"], list):
        return [(float.fromhex(c), 0.0) for c in entry["value"]]
    return [(float.fromhex(entry["value"]), float.fromhex(entry["abs_err"]))]


def _kind(p, c) -> str:
    """What changed between two entries of one key that differ."""
    if p.get("error") != c.get("error"):
        return f"error class {p.get('error')} -> {c.get('error')}"
    pv, cv = _values(p), _values(c)
    if len(pv) != len(cv) or any(not abs(b - a) <= err for (a, err), (b, _) in zip(pv, cv)):
        return "outside abs_err"
    return "other (a message, or a value within abs_err)"


def differences(parent: dict, change: dict):
    """(listed lines, number of bit-identical entries) of two loaded corpora:
    every entry that is not bit-identical is listed, tagged with its kind."""
    listed, same = [], 0
    for key in sorted(set(parent) | set(change)):
        if key not in change or key not in parent:
            listed.append(f"only in {'parent' if key in parent else 'change'}: {key}")
        elif parent[key] == change[key]:
            same += 1
        else:
            p, c = parent[key], change[key]
            listed.append(f"{_kind(p, c)}: {key}: {p} -> {c}")
    return listed, same


def compare(parent_path: str, change_path: str) -> int:
    parent, change = _load(parent_path), _load(change_path)
    listed, same = differences(parent, change)
    for line in listed:
        print(line)
    print(f"{same} of {len(parent)} entries bit-identical; {len(listed)} listed")
    return 1 if listed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    d = sub.add_parser("dump", help="write the corpus as JSON lines")
    d.add_argument("out")
    d.add_argument("--points", type=int, default=6, help="seeded pairs per geometry")
    d.add_argument("--only", default="", help="comma-separated geometry names")
    c = sub.add_parser("compare", help="list what moved between two dumps")
    c.add_argument("parent")
    c.add_argument("change")
    args = parser.parse_args(argv)
    if args.command == "dump":
        return dump(args.out, args.points, set(filter(None, args.only.split(","))))
    return compare(args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main())
