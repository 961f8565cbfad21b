"""The package surface: public names load their module on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hmerge

SOLVERS = {"hmerge.covering", "hmerge.achievability", "hmerge.reduction"}

# standard modules that `hindex` and `improve` do not need: dataclasses, and inspect, which it imports
HEAVY = ["dataclasses", "inspect"]

# prints the HEAVY modules loaded before hmerge, then runs the subcommands in turn and prints the
# hmerge and HEAVY modules loaded after each (a running total)
LOADED_AFTER_EACH = """
import io, json, sys
from contextlib import redirect_stdout

watched = lambda name: name.startswith("hmerge.") or name in %r
startup = sorted(filter(watched, sys.modules))
from hmerge import cli

loaded = []
for argv in (["hindex", "1"], ["improve", "5 4 3 3 3 2"], ["maximize", "5 4 3 3 3 2"], ["gen", "3p", "-m", "2", "-b", "13"]):
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    loaded.append(sorted(filter(watched, sys.modules)))
print(json.dumps([startup, loaded]))
""" % HEAVY


def test_subcommands_load_only_the_modules_they_run():
    env = dict(os.environ, PYTHONPATH=str(Path(hmerge.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", LOADED_AFTER_EACH], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    startup, loaded = json.loads(proc.stdout)
    assert startup == []  # the interpreter itself loads none of them
    hindex, improve, maximize, gen_3p = map(set, loaded)
    assert SOLVERS.isdisjoint(hindex | improve)
    assert set(HEAVY).isdisjoint(hindex | improve)
    assert SOLVERS & maximize == {"hmerge.covering", "hmerge.achievability"}
    assert SOLVERS <= gen_3p


def test_every_public_name_resolves_and_is_listed():
    listing = dir(hmerge)
    for name in hmerge.__all__:
        assert getattr(hmerge, name) is not None
        assert name in listing
    with pytest.raises(AttributeError):
        hmerge.no_such_name


def test_certificate_record_is_one_class():
    from hmerge import achievability, model, reduction

    assert hmerge.AchievabilityCertificate is model.AchievabilityCertificate
    assert achievability.AchievabilityCertificate is reduction.AchievabilityCertificate is model.AchievabilityCertificate
    assert "ValueReport" not in hmerge.__all__
