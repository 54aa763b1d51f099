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


def test_each_sweep_rule_is_checked():
    # --num rows, the parameter ascending from exactly the lower bound to
    # exactly the upper one (one row: --min), U and abs_err finite and
    # ratio_to_free finite or empty
    def csv(*rows):
        return "\n".join([fuzz.CSV_HEADER, *rows]) + "\n"

    good = csv("1.0,-2.0,,0.0", "1.5,-1.0,0.5,0.0", "2.0,-0.5,0.25,0.0")
    assert fuzz.broken_rules("sweep", 0, good, None, (1.0, 2.0, 3)) == []
    assert fuzz.broken_rules("sweep", 0, good, None, (2.0, 1.0, 3)) == []
    assert fuzz.broken_rules("sweep", 0, good, None, (1.0, 2.0, 4)) == ["3 rows for --num 4"]
    assert fuzz.broken_rules("sweep", 0, csv("2.0,-1.0,,0.0"), None, (2.0, 1.0, 1)) == []
    assert fuzz.broken_rules("sweep", 0, csv("1.0,-1.0,,0.0"), None, (2.0, 1.0, 1)) == [
        "first and last rows [1.0], not [2.0]"]
    assert fuzz.broken_rules("sweep", 0, csv("1.0,-1.0,,0.0", "0.9999999999999999,-1.0,,0.0",
                                             "1.0,-1.0,,0.0"), None, (1.0, 1.0, 3)) == [
        "parameter column not ascending: [1.0, 0.9999999999999999, 1.0]"]
    assert fuzz.broken_rules("sweep", 0, csv("0.9999999999999999,-1.0,,0.0", "1.0,-1.0,,0.0"),
                             None, (1.0, 1.0, 2)) == [
        "first and last rows [0.9999999999999999, 1.0], not [1.0, 1.0]"]
    assert fuzz.broken_rules("sweep", 0, csv("1.0,nan,,0.0", "2.0,-1.0,,inf"), None,
                             (1.0, 2.0, 2)) == ["U nan or abs_err 0.0 not finite at 1.0",
                                                "U -1.0 or abs_err inf not finite at 2.0"]
    assert fuzz.broken_rules("sweep", 0, csv("1.0,-1.0,inf,0.0"), None, (1.0, 1.0, 1)) == [
        "ratio_to_free inf not finite at 1.0"]
    assert fuzz.broken_rules("sweep", 0, "U\n", None, (1.0, 1.0, 1)) == ["CSV header ['U']"]
    assert fuzz.broken_rules("sweep", 2, "", None, (1.0, 1.0, 1)) == []


def test_sweeps_leave_the_scenes_alone(monkeypatch):
    # a sweep draws from its own generator: a seed's scenes are the same
    # however many of them are swept
    monkeypatch.setattr(fuzz, "run", lambda argv: (2, "", "", None))
    drawn, scene = [], fuzz.scene
    monkeypatch.setattr(fuzz, "scene", lambda rng: drawn.append(scene(rng)) or drawn[-1])
    monkeypatch.setattr(fuzz, "SWEEP_EVERY", 1)
    fuzz.fuzz(SEED, 20)
    every, drawn[:] = drawn[:], []
    monkeypatch.setattr(fuzz, "SWEEP_EVERY", 7)
    fuzz.fuzz(SEED, 20)
    assert drawn == every and len(every) == 20


def test_an_exception_from_main_is_caught(monkeypatch):
    def boom(argv):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(fuzz, "cli_main", boom)
    code, stdout, stderr, exc = fuzz.run(["force", "--scene", "none.json"])
    assert (code, stdout, stderr, type(exc)) == (None, "", "", ZeroDivisionError)
