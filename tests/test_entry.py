"""The process entry, `python -m parker.cli` and the `parker` script: a
command run as a process prints, writes and exits as main() does in
process, and its end skips the interpreter's teardown only when nothing
can depend on it."""

import os
import re
import signal
import subprocess
import sys

import pytest

from parker import survey
from parker.cli import main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def _env(unbuffered=False):
    # the streams' encoding and buffering are those of a plain run whatever
    # the environment of the tests sets
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONIOENCODING"] = "utf-8"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_process(*args, stdout=subprocess.PIPE, unbuffered=False):
    """A fresh interpreter run with args: (status, stdout, stderr)."""
    proc = subprocess.run([sys.executable, *args], env=_env(unbuffered),
                          text=True, stdout=stdout, stderr=subprocess.PIPE,
                          timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def run_in_process(capsys, *argv):
    """main(argv) in this process: (status, stdout, stderr)."""
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse: usage errors and --help
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _masked(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    # elapsed_ms, a JSON line's key and a CSV row's last column
    text = re.sub(r'"elapsed_ms": [0-9]+', '"elapsed_ms": X', text)
    return re.sub(r",[0-9]+$", ",X", text, flags=re.MULTILINE)


def test_scan_with_files_matches_main(capsys, tmp_path):
    ckpt, out = str(tmp_path / "ckpt.jsonl"), str(tmp_path / "out.csv")
    argv = ("scan-rings", "--from", "1001", "--to", "1100", "--mod", "4",
            "--res", "0", "--jobs", "2", "--checkpoint", ckpt, "--out", out)
    as_process = run_process("-m", "parker.cli", *argv)
    files = _masked(ckpt), _masked(out)
    os.remove(ckpt)
    os.remove(out)
    assert run_in_process(capsys, *argv) == as_process
    assert (_masked(ckpt), _masked(out)) == files
    # complete: a line per modulus, and the report's header
    assert [len(f.splitlines()) for f in files] == [25, 26]
    assert as_process[2] == f"wrote 25 records to {out}\n"


@pytest.mark.parametrize("argv, status", [
    (("ring", "1"), 1),      # an input error: main returns 1
    (("--bogus",), 1),       # a usage error: argparse exits
    (("--help",), 0),
    (("scan-rings", "--help"), 0),
])
def test_status_and_output_match_main(capsys, monkeypatch, argv, status):
    # argparse wraps its text to this width in both runs
    monkeypatch.setenv("COLUMNS", "80")
    as_process = run_process("-m", "parker.cli", *argv)
    assert as_process[0] == status
    assert run_in_process(capsys, *argv) == as_process


def _to_closed_pipe(*args, unbuffered=False):
    """(status, stderr) of a run whose stdout is a pipe with no reader."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        status, _, err = run_process(*args, stdout=write_end,
                                     unbuffered=unbuffered)
    finally:
        os.close(write_end)
    return status, err


@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ("ring", "27"),
    ("scan-rings", "--from", "2", "--to", "3000"),
], ids=["short", "long"])
def test_closed_pipe_is_an_error_line(argv, unbuffered):
    # a short output waits in the buffer until the entry's flush, a long
    # one fails its write in main, and unbuffered both fail in main: each
    # is one error line and status 1, as any failed write
    assert _to_closed_pipe("-m", "parker.cli", *argv, unbuffered=unbuffered) \
        == (1, "parker: error: [Errno 32] Broken pipe\n")


def test_missing_stdout_ends_with_mains_status(capsys):
    # started with fd 1 closed, the interpreter sets sys.stdout to None; a
    # command that prints nothing there ends as in process
    argv = ("hourglass", "--mode", "exhaustive", "--max-norm", "10")
    proc = subprocess.run(["sh", "-c", 'exec "$0" "$@" >&-', sys.executable,
                           "-m", "parker.cli", *argv], env=_env(), text=True,
                          stderr=subprocess.PIPE, timeout=120)
    assert (proc.returncode, "", proc.stderr) == run_in_process(capsys, *argv)


@pytest.mark.parametrize("argv", [
    ("ring", "27"),
    ("scan-rings", "--from", "2", "--to", "10"),
], ids=["ring", "scan-rings"])
def test_missing_stdout_is_an_error_line(argv):
    # a command that has output for a missing stdout reports it as it
    # reports a failed write: one error line and status 1, no traceback
    proc = subprocess.run(["sh", "-c", 'exec "$0" "$@" >&-', sys.executable,
                           "-m", "parker.cli", *argv], env=_env(), text=True,
                          stderr=subprocess.PIPE, timeout=120)
    assert (proc.returncode, proc.stderr) \
        == (1, "parker: error: [Errno 9] stdout is closed\n")


@pytest.mark.skipif(survey._usable_cpus() < 2, reason="needs two CPUs")
def test_pool_scan_leaves_no_process(capsys):
    argv = ("scan-rings", "--from", "2", "--to", "6000")
    proc = subprocess.Popen([sys.executable, "-m", "parker.cli", "-v", *argv,
                             "--jobs", "2"], env=_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 0, err
    assert re.search(r"^parker: ring scan: pool of 2 workers for ", err,
                     re.MULTILINE)
    assert run_in_process(capsys, *argv, "--jobs", "1")[:2] == (0, out)
    # the command's session holds no worker once it has exited
    try:
        os.killpg(proc.pid, 0)
    except ProcessLookupError:
        pass
    else:
        os.killpg(proc.pid, signal.SIGKILL)
        pytest.fail("a process of the scan outlived it")


# a command run by the entry, with an atexit callback that prints
_WITH_ATEXIT = """\
import atexit, sys
atexit.register(print, "atexit ran")
{setup}
sys.argv[1:] = ["ring", "27"]
from parker.cli import entry
entry()
"""


@pytest.mark.parametrize("setup, ran", [
    ("", False),
    ("sys.settrace(lambda *args: None)", True),
    ("sys.setprofile(lambda *args: None)", True),
], ids=["plain", "tracer", "profiler"])
def test_teardown_skipped_unless_observed(setup, ran):
    status, out, err = run_process("-c", _WITH_ATEXIT.format(setup=setup))
    assert (status, err) == (0, "")
    assert out == ("Z/27Z: 3 magic squares of squares (3 dihedral classes), "
                   "not Parker\n" + "atexit ran\n" * ran)


def test_profiled_run_prints_its_stats():
    status, out, err = run_process("-m", "cProfile", "-m", "parker.cli",
                                   "ring", "27")
    assert (status, err) == (0, "")
    first, *rest = out.splitlines()
    assert first.startswith("Z/27Z: 3 magic squares of squares")
    assert any(re.search(r"\d+ function calls", line) for line in rest)
