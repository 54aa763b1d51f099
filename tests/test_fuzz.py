"""tools/fuzz.py: one fixed seed of seeded scenes, each ending in a defined outcome."""

import importlib.util
import json
import random
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "fuzz.py"
_SPEC = importlib.util.spec_from_file_location("fuzz", _PATH)
fuzz = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fuzz)

SEED = 7
SCENES = 1500


def test_scenes_are_seeded():
    assert fuzz.scene(random.Random(SEED)) == fuzz.scene(random.Random(SEED))


def test_one_seed_breaks_no_rule():
    found = fuzz.fuzz(SEED, SCENES)
    assert found == [], "\n".join(f"{c}: {rule}\n  {json.dumps(doc)}" for c, doc, rule in found)


def test_each_rule_is_checked():
    # the exit codes, the strict JSON of stdout and a finite abs_err
    assert fuzz.broken_rules("pair-energy", 1, "", None) == ["exit code 1"]
    assert fuzz.broken_rules("pair-energy", 0, '{"abs_err": NaN}', None)[0].startswith(
        "stdout is not JSON")
    assert fuzz.broken_rules("self-energy", 0, '{"abs_err": 1e999}', None) == [
        "abs_err inf is not finite"]
    assert fuzz.broken_rules("force", 0, '{"F_newtons": [0.0, 0.0, 0.0]}', None) == []
    assert fuzz.broken_rules("force", None, "", ZeroDivisionError("float division by zero")) == [
        "ZeroDivisionError left main: float division by zero"]


def test_an_exception_from_main_is_caught(monkeypatch):
    def boom(argv):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(fuzz, "cli_main", boom)
    code, stdout, stderr, exc = fuzz.run(["force", "--scene", "none.json"])
    assert (code, stdout, stderr, type(exc)) == (None, "", "", ZeroDivisionError)
