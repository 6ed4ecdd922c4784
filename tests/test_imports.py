"""Each command loads only the modules it runs, and the package's public
names load their module on first access."""

import json
import os
import subprocess
import sys

import pytest

import parker

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def loaded_after(code):
    """The sorted sys.modules of a fresh interpreter after running code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def loaded_by_command(*argv):
    return loaded_after(
        "import contextlib, io\n"
        "from parker.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        f"    assert main({list(argv)!r}) == 0\n")


def test_import_parker_loads_no_submodule():
    assert {m for m in loaded_after("import parker")
            if m.startswith("parker.")} == set()


def test_hourglass_loads_no_scan_module():
    loaded = loaded_by_command("hourglass", "--mode", "exhaustive",
                               "--max-norm", "60")
    assert "parker.gaussian" in loaded
    assert loaded.isdisjoint({"parker.survey", "parker.search",
                              "parker.algebra", "concurrent.futures"})


@pytest.mark.parametrize("argv", [
    ("ring", "27"),
    ("scan-fields", "--from", "4", "--to", "30", "--prime-powers"),
], ids=["ring", "scan-fields"])
def test_carrier_commands_load_no_gaussian_or_pool(argv):
    loaded = loaded_by_command(*argv)
    assert "parker.search" in loaded
    assert loaded.isdisjoint({"parker.gaussian", "concurrent.futures"})


class TestPackageExports:
    def test_every_public_name_resolves(self):
        for name in parker.__all__:
            assert getattr(parker, name) is not None

    def test_public_names_keep_their_objects(self):
        from parker import gaussian, survey
        assert parker.search_hourglass is gaussian.search_hourglass
        assert parker.scan_rings is survey.scan_rings
        assert parker.survey is survey

    def test_dir_lists_every_public_name(self):
        assert set(parker.__all__) <= set(dir(parker))

    def test_star_import_binds_every_public_name(self):
        names = {}
        exec("from parker import *", names)
        assert set(parker.__all__) <= set(names)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            parker.no_such_name
