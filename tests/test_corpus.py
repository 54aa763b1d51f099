"""tools/corpus.py: its dumps are deterministic, and compare lists what moved."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "corpus.py"
_SPEC = importlib.util.spec_from_file_location("corpus", _PATH)
corpus = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(corpus)

# a row with closed forms, a Born row and gaps on three routes
ONLY = "free_space,born_half_space,dielectric_gap,gap_PC_1.0_PC,gap_1000.0_1.0_1000.0"


@pytest.fixture(scope="module")
def dumped(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("corpus")
    paths = [tmp / "a.jsonl", tmp / "b.jsonl"]
    for path in paths:
        assert corpus.main(["dump", str(path), "--points", "2", "--only", ONLY]) == 0
    return paths


def test_two_dumps_are_byte_identical(dumped):
    a, b = (path.read_bytes() for path in dumped)
    assert a == b
    names = {json.loads(line)["geometry"] for line in a.decode().splitlines()}
    assert names == set(ONLY.split(","))


def test_a_dump_compared_with_itself_lists_nothing(dumped, capsys):
    assert corpus.main(["compare", str(dumped[0]), str(dumped[1])]) == 0
    out = capsys.readouterr().out
    assert out.endswith("entries bit-identical; 0 listed\n")


def test_every_change_is_listed_with_its_kind(dumped, tmp_path, capsys):
    # a value moved past its abs_err, a class changed, and a value moved
    # within its abs_err
    entries = [json.loads(line) for line in dumped[0].read_text().splitlines()]
    with_err = [i for i, e in enumerate(entries) if e.get("abs_err") not in (None, "0x0.0p+0")
                and float.fromhex(e["abs_err"]) > 1e-14 * abs(float.fromhex(e["value"]))]
    moved, inside = with_err[:2]
    for i, shift in ((moved, 2.0), (inside, 0.5)):
        value, err = (float.fromhex(entries[i][k]) for k in ("value", "abs_err"))
        entries[i]["value"] = (value + shift * err).hex()
    changed = next(i for i, e in enumerate(entries)
                   if e["quantity"] == "g1" and i not in (moved, inside))
    entries[changed] = {**{k: entries[changed][k] for k in ("geometry", "rel_tol", "quantity",
                                                            "inputs")},
                        "error": "DomainError", "message": "made up"}
    change = tmp_path / "change.jsonl"
    change.write_text("".join(json.dumps(e, sort_keys=True) + "\n" for e in entries))
    assert corpus.main(["compare", str(dumped[0]), str(change)]) == 1
    lines = capsys.readouterr().out.splitlines()
    for kind in ("outside abs_err", "error class None -> DomainError", "other"):
        assert len([line for line in lines if line.startswith(kind)]) == 1
    assert lines[-1] == f"{len(entries) - 3} of {len(entries)} entries bit-identical; 3 listed"
