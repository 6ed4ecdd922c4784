"""Each command loads only the modules it runs, parker's and the standard
library's, and the package's public names load their module on first
access."""

import functools
import os
import subprocess
import sys

import pytest

import parker

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


# standard-library modules no command loads unless its path uses them:
# dataclasses (with inspect) nowhere, logging only for -v, json only to
# read a checkpoint or JSONL report or for --json, verify and an hourglass
# hit, and csv only to parse a CSV report; scans write their records from
# templates
UNUSED = {"dataclasses", "inspect", "logging", "json", "csv"}


def _run(args):
    """A fresh interpreter run with args and src on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60)


def loaded_after(code):
    """The sys.modules of a fresh interpreter after running code, as a set;
    the probe itself loads no module."""
    probe = code + "\nimport sys\nprint(' '.join(sorted(sys.modules)))"
    proc = _run(["-c", probe])
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@functools.lru_cache(maxsize=None)
def at_start():
    """The modules an interpreter loads before running any code."""
    return frozenset(loaded_after(""))


def loaded_by_command(*argv):
    """The modules the command adds to a fresh interpreter."""
    return loaded_after(
        "import contextlib, io\n"
        "from parker.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        f"    assert main({list(argv)!r}) == 0\n") - at_start()


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
    # two jobs, but a scan this short ends before the pool would start
    ("scan-rings", "--from", "1001", "--to", "1100", "--mod", "4", "--res",
     "0", "--jobs", "2"),
], ids=["ring", "scan-fields", "scan-rings"])
def test_carrier_commands_load_no_gaussian_or_pool(argv):
    loaded = loaded_by_command(*argv)
    assert "parker.search" in loaded
    assert loaded.isdisjoint({"parker.gaussian", "concurrent.futures",
                              "multiprocessing"})


@pytest.mark.parametrize("argv", [
    ("scan-rings", "--from", "1001", "--to", "1100", "--mod", "4", "--res",
     "0"),
    ("scan-fields", "--from", "4", "--to", "30", "--prime-powers"),
], ids=["scan-rings", "scan-fields"])
def test_scans_load_no_oracle(argv):
    # the oracle is the tests' ground truth; no command runs it
    loaded = loaded_by_command(*argv)
    assert "parker.search" in loaded and "parker.oracle" not in loaded


@pytest.mark.parametrize("argv", [
    ("hourglass", "--mode", "exhaustive", "--max-norm", "60"),
    ("hourglass", "--mode", "product-first", "--max-norm", "2000"),
    ("scan-fields", "--from", "4", "--to", "30", "--prime-powers"),
    ("ring", "27"),
], ids=["exhaustive", "product-first", "scan-fields", "ring"])
def test_commands_load_no_unused_stdlib_module(argv):
    assert loaded_by_command(*argv).isdisjoint(UNUSED)


def test_scans_writing_records_load_no_json_or_csv(tmp_path):
    ckpt, csv_out, jsonl_out = (str(tmp_path / name) for name in
                                ("ckpt.jsonl", "out.csv", "out.jsonl"))
    for argv in (("scan-rings", "--from", "1001", "--to", "1100", "--mod",
                  "4", "--res", "0", "--jobs", "2", "--checkpoint", ckpt,
                  "--out", csv_out),
                 ("scan-fields", "--from", "4", "--to", "30",
                  "--format", "jsonl", "--out", jsonl_out)):
        assert loaded_by_command(*argv).isdisjoint({"json", "csv"}), argv
    with open(ckpt, encoding="utf-8") as fh:
        assert len(fh.readlines()) == 25
    # resuming reads the checkpoint, which takes json
    assert "json" in loaded_by_command("scan-rings", "--from", "1001",
                                       "--to", "1100", "--mod", "4", "--res",
                                       "0", "--checkpoint", ckpt)


def test_ring_scan_caches_once_per_prime_power():
    # the one cache of count data computes a prime power once and then
    # reuses it, and keeps integers only, no carrier
    out = _run(["-c", "from parker import search, survey\n"
                      "from parker.algebra import factorize\n"
                      "survey.scan_rings(1001, 1100, (4, 0))\n"
                      "powers = {f for n in range(1004, 1101, 4)\n"
                      "          for f in factorize(n).items()}\n"
                      "info = search._component_counts.cache_info()\n"
                      "rows = [row for f in powers\n"
                      "        for row in search._component_counts(*f)]\n"
                      "ints = all(type(r) is int and all(\n"
                      "    type(x) is int for h in halves for x in h)\n"
                      "    for r, *halves in rows)\n"
                      "print(len(powers), info.currsize, info.hits, ints)\n"])
    assert out.returncode == 0, out.stderr
    powers, currsize, hits, ints = out.stdout.split()
    assert int(currsize) == int(powers) and int(hits) and ints == "True"


def test_verbose_hourglass_loads_logging_and_logs():
    proc = _run(["-c", "import sys\n"
                       "from parker.cli import main\n"
                       "code = main(['-v', 'hourglass', '--mode', "
                       "'exhaustive', '--max-norm', '60'])\n"
                       "print('logging' in sys.modules, code)"])
    assert proc.stdout == "True 0\n"
    phases = [line.split()[3] for line in proc.stderr.splitlines()
              if line.startswith("parker: exhaustive: ")]
    assert phases[0] == "rows," and phases[-1] == "pairs,"
    assert phases == sorted(phases, reverse=True)


def test_corrupt_checkpoint_warns_without_verbose(tmp_path):
    # logging is not loaded until the warning; its last-resort handler
    # still writes the warning to stderr
    ckpt = tmp_path / "ckpt.jsonl"
    ckpt.write_text("{not json}\n")
    proc = _run(["-m", "parker.cli", "scan-fields", "--from", "2", "--to",
                 "10", "--checkpoint", str(ckpt)])
    assert proc.returncode == 0, proc.stderr
    assert "skipping corrupt checkpoint line 1 in " in proc.stderr
    assert proc.stdout.splitlines()[0] == "field 2: Parker (even-order)"


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
