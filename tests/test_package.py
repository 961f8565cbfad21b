"""The package surface: public names load their module on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hmerge

SOLVERS = {"hmerge.covering", "hmerge.achievability", "hmerge.reduction"}

# runs the subcommands in turn and prints the hmerge modules loaded after each (a running total)
LOADED_AFTER_EACH = """
import io, json, sys
from contextlib import redirect_stdout
from hmerge import cli

loaded = []
for argv in (["hindex", "1"], ["improve", "5 4 3 3 3 2"], ["maximize", "5 4 3 3 3 2"], ["gen", "3p", "-m", "2", "-b", "13"]):
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    loaded.append(sorted(name for name in sys.modules if name.startswith("hmerge.")))
print(json.dumps(loaded))
"""


def test_subcommands_load_only_the_modules_they_run():
    env = dict(os.environ, PYTHONPATH=str(Path(hmerge.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", LOADED_AFTER_EACH], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    hindex, improve, maximize, gen_3p = map(set, json.loads(proc.stdout))
    assert SOLVERS.isdisjoint(hindex | improve)
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
