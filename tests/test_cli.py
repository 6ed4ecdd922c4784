import contextlib
import importlib.util
import io
import json
import os
import re
import shlex
import sys

import pytest
from hypothesis import given, settings, strategies as st

from parker import cli, listing, survey
from parker.algebra import MAX_ORDER, make_carrier
from parker.cli import build_parser, main
from parker.limits import MAX_BOUND
from parker.listing import msos_field, msos_ring


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFieldAndRing:
    def test_field_29_json(self, capsys):
        code, out, _ = run_cli(capsys, "field", "29", "--list", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["tuple_count"] == 2
        assert payload["parker"] is False
        assert len(payload["tuples"]) == 2

    def test_ring_27_json(self, capsys):
        code, out, _ = run_cli(capsys, "ring", "27", "--json")
        assert code == 0
        assert json.loads(out)["tuple_count"] == 3

    @pytest.mark.parametrize("args", [
        ("field", str(MAX_ORDER + 1)),
        ("ring", str(MAX_ORDER + 1)),
        ("scan-fields", "--from", "2", "--to", str(MAX_ORDER + 1)),
        ("scan-rings", "--from", "2", "--to", str(MAX_ORDER + 1)),
    ])
    def test_order_above_limit_exits_1(self, capsys, monkeypatch, args):
        def refuse(*_, **__):
            raise AssertionError("scanned past the order guard")
        monkeypatch.setattr(survey, "_run_scan", refuse)
        code, out, err = run_cli(capsys, *args)
        assert code == 1
        assert out == ""
        assert "exceeds the limit" in err

    def test_extension_field_lists_coefficient_arrays(self, capsys):
        code, out, _ = run_cli(capsys, "field", "81", "--list", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["modulus_poly"] == [2, 1, 0, 0, 1]  # x^4 + x + 2
        assert payload["tuples"]
        assert all(isinstance(cell, list) and len(cell) == 4
                   for t in payload["tuples"] for cell in t)

    @pytest.mark.parametrize("argv,expected", [
        (("ring", "27"), "Z/27Z: 3 magic squares of squares "
         "(3 dihedral classes), not Parker\n"
         "  [10 13 7 | 25 1 4 | 22 16 19]\n"
         "  [10 16 4 | 22 1 7 | 25 13 19]\n"
         "  [13 7 10 | 25 1 4 | 19 22 16]\n"),
        (("field", "29"), "F_29: 2 magic squares of squares "
         "(2 dihedral classes), not Parker\n"
         "  [5 23 1 | 25 0 4 | 28 6 24]\n"
         "  [6 22 1 | 24 0 5 | 28 7 23]\n"),
        # an element that prints with spaces is parenthesized
        (("field", "49"), "F_49: 1 magic squares of squares "
         "(1 dihedral classes), not Parker\n"
         "  [x (6 + 6*x) 1 | (1 + 6*x) 0 (6 + x) | 6 (1 + x) 6*x]\n"),
        (("field", "81"), "F_81: 9 magic squares of squares "
         "(9 dihedral classes), not Parker\n"
         "  [(2*x + x^2 + x^3) (x + 2*x^2 + 2*x^3) 0 | "
         "(1 + x + 2*x^2 + 2*x^3) 1 (1 + 2*x + x^2 + x^3) | 2 "
         "(2 + 2*x + x^2 + x^3) (2 + x + 2*x^2 + 2*x^3)]\n"
         "  [(2*x + x^2 + x^3) (2 + x + 2*x^2 + 2*x^3) 1 | "
         "(1 + x + 2*x^2 + 2*x^3) 0 (2 + 2*x + x^2 + x^3) | 2 "
         "(1 + 2*x + x^2 + x^3) (x + 2*x^2 + 2*x^3)]\n"
         "  [(1 + 2*x + x^2 + x^3) (2 + 2*x + x^2 + x^3) (2*x + x^2 + x^3) | "
         "0 1 2 | (2 + x + 2*x^2 + 2*x^3) (x + 2*x^2 + 2*x^3) "
         "(1 + x + 2*x^2 + 2*x^3)]\n"
         "  [(1 + 2*x + x^2 + x^3) (1 + x + 2*x^2 + 2*x^3) 1 | "
         "(x + 2*x^2 + 2*x^3) 0 (2*x + x^2 + x^3) | 2 (2 + 2*x + x^2 + x^3) "
         "(2 + x + 2*x^2 + 2*x^3)]\n"
         "  [(1 + 2*x + x^2 + x^3) (2 + x + 2*x^2 + 2*x^3) 0 | "
         "(x + 2*x^2 + 2*x^3) 1 (2 + 2*x + x^2 + x^3) | 2 (2*x + x^2 + x^3) "
         "(1 + x + 2*x^2 + 2*x^3)]\n"
         "  [(2 + 2*x + x^2 + x^3) (2*x + x^2 + x^3) (1 + 2*x + x^2 + x^3) | "
         "0 1 2 | (1 + x + 2*x^2 + 2*x^3) (2 + x + 2*x^2 + 2*x^3) "
         "(x + 2*x^2 + 2*x^3)]\n"
         "  [(2 + 2*x + x^2 + x^3) (1 + 2*x + x^2 + x^3) (2*x + x^2 + x^3) | "
         "2 1 0 | (2 + x + 2*x^2 + 2*x^3) (1 + x + 2*x^2 + 2*x^3) "
         "(x + 2*x^2 + 2*x^3)]\n"
         "  [(2 + 2*x + x^2 + x^3) (x + 2*x^2 + 2*x^3) 1 | "
         "(2 + x + 2*x^2 + 2*x^3) 0 (1 + 2*x + x^2 + x^3) | 2 "
         "(2*x + x^2 + x^3) (1 + x + 2*x^2 + 2*x^3)]\n"
         "  [(2 + 2*x + x^2 + x^3) (1 + x + 2*x^2 + 2*x^3) 0 | "
         "(2 + x + 2*x^2 + 2*x^3) 1 (2*x + x^2 + x^3) | 2 "
         "(1 + 2*x + x^2 + x^3) (x + 2*x^2 + 2*x^3)]\n"),
    ])
    def test_text_listing(self, capsys, monkeypatch, argv, expected):
        # only --json turns the tuples into JSON lists
        def refuse(*_):
            raise AssertionError("a text listing built a JSON tuple")
        monkeypatch.setattr(listing, "json_rows", refuse)
        # the lines go out in batches, here of two, so that every listing
        # but F_49's takes more than one
        monkeypatch.setattr(cli, "_WRITE_BATCH", 2)
        code, out, _ = run_cli(capsys, *argv, "--list")
        assert code == 0
        assert out == expected

    @pytest.mark.parametrize("kind, order", [
        ("ring", 27), ("field", 29), ("field", 49), ("field", 81),
        ("field", 17)])
    def test_json_listing(self, capsys, monkeypatch, kind, order):
        # the tuples are written one at a time, in batches of two here, and
        # the bytes are json.dumps of the whole payload
        monkeypatch.setattr(cli, "_WRITE_BATCH", 2)
        carrier = make_carrier(kind, order)
        tuples = (msos_field if kind == "field" else msos_ring)(carrier).tuples
        payload = {"kind": kind, "order": order,
                   "square_count": carrier.square_set()[0].bit_count(),
                   "tuple_count": len(tuples),
                   "dihedral_class_count": len(tuples),
                   "parker": not tuples,
                   "tuples": [[carrier.element_to_json(x) for x in t]
                              for t in tuples]}
        if carrier.kind == "extension-field":
            payload["modulus_poly"] = list(carrier.modulus_poly)
        code, out, _ = run_cli(capsys, kind, str(order), "--list", "--json")
        assert code == 0
        assert out == json.dumps(payload, sort_keys=True) + "\n"

    def test_plain_output(self, capsys):
        code, out, _ = run_cli(capsys, "field", "17")
        assert code == 0
        assert "Parker" in out

    def test_invalid_order_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "field", "12")
        assert code == 1
        assert "error" in err

    def test_deterministic_stdout(self, capsys):
        _, out1, _ = run_cli(capsys, "field", "29", "--list", "--json")
        _, out2, _ = run_cli(capsys, "field", "29", "--list", "--json")
        assert out1 == out2


class TestScans:
    def test_scan_fields_to_csv(self, capsys, tmp_path):
        out_file = tmp_path / "fields.csv"
        code, out, _ = run_cli(capsys, "scan-fields", "--from", "2", "--to",
                               "29", "--out", str(out_file))
        assert code == 0
        assert "field 29: 2 squares" in out
        assert "record breakers: 2:0, 29:2" in out
        header = out_file.read_text().splitlines()[0]
        assert header.startswith("order,kind,square_count")

    def test_scan_rings_odd(self, capsys):
        code, out, _ = run_cli(capsys, "scan-rings", "--from", "3", "--to",
                               "30", "--odd")
        assert code == 0
        assert "ring 27: 3 squares" in out

    def test_scan_rings_congruence(self, capsys):
        code, out, _ = run_cli(capsys, "scan-rings", "--from", "4", "--to",
                               "16", "--mod", "4", "--res", "0")
        assert code == 0
        assert [line for line in out.splitlines() if line.startswith("ring")] \
            == ["ring 4: Parker", "ring 8: Parker", "ring 12: Parker",
                "ring 16: Parker"]

    def test_verbose_logs_each_order_on_stderr(self, capsys):
        args = ("scan-rings", "--from", "25", "--to", "29")
        code, quiet, err = run_cli(capsys, *args)
        assert code == 0 and err == ""
        code, out, err = run_cli(capsys, "-v", *args)
        assert code == 0 and out == quiet
        lines = err.splitlines()
        assert len(lines) == 5
        assert re.fullmatch(r"parker: ring 27: 3 magic squares in \d+ ms; "
                            r"3/5 done, 1 not Parker; "
                            r"\d+\.\d\d orders/s, ETA \d+\.\d s", lines[2])
        assert re.search(r"; 5/5 done, 2 not Parker; \d+\.\d\d orders/s, "
                         r"ETA 0\.0 s$", lines[4])
        # the handler goes with the command
        assert run_cli(capsys, *args)[1:] == (quiet, "")

    @pytest.mark.parametrize("mod", ["0", "-4"])
    def test_congruence_modulus_below_one_exits_1(self, capsys, mod):
        code, out, err = run_cli(capsys, "scan-rings", "--from", "4", "--to",
                                 "16", "--mod", mod)
        assert code == 1
        assert out == ""
        assert "at least 1" in err

    @pytest.mark.parametrize("extra", [[], ["--odd"]])
    def test_res_without_mod_exits_1(self, capsys, extra):
        code, out, err = run_cli(capsys, "scan-rings", "--from", "4", "--to",
                                 "16", "--res", "1", *extra)
        assert code == 1
        assert out == ""
        assert "--res needs --mod" in err

    @pytest.mark.parametrize("command", ["scan-fields", "scan-rings"])
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_format_without_out_exits_1(self, capsys, command, fmt):
        code, out, err = run_cli(capsys, command, "--from", "2", "--to", "8",
                                 "--format", fmt)
        assert code == 1
        assert out == ""
        assert "--format needs --out" in err

    @pytest.mark.parametrize("command", ["scan-fields", "scan-rings"])
    def test_out_without_format_writes_csv(self, capsys, tmp_path, command):
        path = tmp_path / "report"
        code, out, _ = run_cli(capsys, command, "--from", "2", "--to", "8",
                               "--out", str(path))
        assert code == 0
        assert path.read_text().startswith("order,kind,square_count,")

    def test_mod_without_res_means_residue_0(self, capsys):
        _, out, _ = run_cli(capsys, "scan-rings", "--from", "4", "--to",
                            "16", "--mod", "4")
        assert [line for line in out.splitlines() if line.startswith("ring")] \
            == ["ring 4: Parker", "ring 8: Parker", "ring 12: Parker",
                "ring 16: Parker"]

    def test_resume_over_malformed_checkpoint(self, capsys, tmp_path):
        args = ("scan-rings", "--from", "2", "--to", "30")
        _, fresh, _ = run_cli(capsys, *args)
        ckpt = tmp_path / "ckpt.jsonl"
        assert run_cli(capsys, *args, "--checkpoint", str(ckpt))[0] == 0
        lines = ckpt.read_text().splitlines()
        obj = json.loads(lines[-1])
        ckpt.write_text("\n".join(lines[:5] + [
            "[1, 2]", '"x"',
            json.dumps({**obj, "parker": not obj["parker"]}),
            json.dumps({**obj, "dihedral_class_count":
                        obj["msos_count"] + 1})]) + "\n")
        code, out, _ = run_cli(capsys, *args, "--checkpoint", str(ckpt))
        assert code == 0
        assert out == fresh

    @pytest.mark.parametrize("env", ["junk", "0", "-3", "two"])
    def test_jobs_env_ignored(self, capsys, monkeypatch, env):
        # --jobs is the only worker setting; PARKER_JOBS is not read
        args = ("scan-fields", "--from", "2", "--to", "20")
        code, plain, _ = run_cli(capsys, *args)
        assert code == 0
        monkeypatch.setenv("PARKER_JOBS", env)
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        assert out == plain

    @pytest.mark.parametrize("command", ["scan-fields", "scan-rings"])
    def test_inverted_range_exits_1(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--from", "5", "--to", "2")
        assert code == 1
        assert out == ""
        assert err == "parker: error: inverted range: lo 5 is above hi 2\n"

    @pytest.mark.parametrize("argv", [("scan-fields",),
                                      ("scan-fields", "--primes"),
                                      ("scan-fields", "--prime-powers"),
                                      ("scan-rings",)])
    def test_negative_range_prints_empty_table(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--from", "-10", "--to", "-5")
        assert code == 0
        assert out == "record breakers: \n"
        assert err == ""

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_1(self, capsys, jobs):
        code, out, err = run_cli(capsys, "scan-rings", "--from", "2", "--to",
                                 "10", "--jobs", jobs)
        assert code == 1
        assert out == ""
        assert "at least 1" in err


class TestHourglassCommand:
    def test_exhaustive_empty_exit_zero(self, capsys):
        code, out, err = run_cli(capsys, "hourglass", "--mode", "exhaustive",
                                 "--max-norm", "40")
        assert code == 0
        assert out == ""
        assert "0 hits" in err

    def test_product_first(self, capsys):
        code, _, err = run_cli(capsys, "hourglass", "--mode", "product-first",
                               "--max-norm", "500")
        assert code == 0
        assert "triples tested" in err

    @pytest.mark.parametrize("mode", sorted(MAX_BOUND))
    def test_verbose_logs_progress_on_stderr(self, capsys, mode):
        args = ("hourglass", "--mode", mode, "--max-norm", "2000")
        code, quiet, err = run_cli(capsys, *args)
        summary = err.splitlines()
        assert code == 0 and len(summary) == 1
        assert summary[0].startswith(f"{mode}: 0 hits, ")
        code, out, err = run_cli(capsys, "-v", *args)
        assert code == 0 and out == quiet
        lines = err.splitlines()
        assert lines[-1:] == summary
        # the walk's rows, then the kernel's pairs, at most 101 lines each
        rows = [line for line in lines if re.fullmatch(
            rf"parker: {mode}: \d+/\d+ rows, \d+ positive slopes; "
            r"\d+ rows/s, ETA \d+\.\d s", line)]
        pairs = [line for line in lines if re.fullmatch(
            rf"parker: {mode}: \d+/\d+ pairs, \d+ slope triples; "
            r"\d+ pairs/s, ETA \d+\.\d s", line)]
        assert lines[:-1] == rows + pairs
        assert 1 <= len(rows) <= 101 and 1 <= len(pairs) <= 101
        # the handler goes with the command
        assert run_cli(capsys, *args)[1:] == (quiet, summary[0] + "\n")
        assert build_parser().parse_args(["-vv", *args]).verbose is True

    @pytest.mark.parametrize("args", [
        ("--mode", "exhaustive", "--max-norm",
         str(MAX_BOUND["exhaustive"] + 1)),
        ("--mode", "product-first", "--max-norm", str(10**30)),
        ("--mode", "exhaustive", "--max-norm", "40", "--report-every", "5"),
        ("--mode", "product-first", "--max-norm", "0"),
    ])
    def test_absurd_input_exits_1(self, capsys, args):
        code, out, err = run_cli(capsys, "hourglass", *args)
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_hit_wire_format(self, capsys, monkeypatch):
        # no qualifying triple is known, so pin the output format on a stub
        from parker import hourglass
        from parker.gaussian import GaussianInt
        from parker.hourglass import HourglassHit, HourglassSearchResult
        hit = HourglassHit(GaussianInt(2, 1), GaussianInt(3, 2),
                           GaussianInt(4, 1), (1, 2, 3, 4, 5, 6, 7))
        monkeypatch.setattr(
            hourglass, "search_hourglass",
            lambda mode, bound: HourglassSearchResult(mode, bound, (hit,), 1,
                                                      1))
        code, out, _ = run_cli(capsys, "hourglass", "--mode", "exhaustive",
                               "--max-norm", "5")
        assert code == 0
        assert json.loads(out) == {"x": [2, 1], "y": [3, 2], "z": [4, 1],
                                   "cells": [1, 2, 3, 4, 5, 6, 7]}


class TestVerify:
    def write(self, tmp_path, doc):
        path = tmp_path / "square.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_parker_square_fails_with_exit_2(self, capsys, tmp_path):
        path = self.write(tmp_path, {
            "carrier": {"kind": "int"},
            "cells": [x * x for x in (29, 1, 47, 41, 37, 1, 23, 41, 29)]})
        code, out, _ = run_cli(capsys, "verify", path)
        assert code == 2
        assert out.count("3051") == 7
        assert "4107" in out
        assert "NOT magic" in out

    def test_mod29_square_passes(self, capsys, tmp_path):
        path = self.write(tmp_path, {
            "carrier": {"kind": "field", "order": 29},
            "cells": [x * x % 29 for x in (9, 11, 1, 6, 0, 14, 12, 16, 8)]})
        code, out, _ = run_cli(capsys, "verify", path, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["is_magic_square_of_squares"] is True
        assert payload["common_total"] == 0

    def test_extension_field_cells_as_coefficient_arrays(self, capsys,
                                                         tmp_path):
        grid = [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1], [0, 2],
                [1, 2], [2, 2]]
        path = self.write(tmp_path, {
            "carrier": {"kind": "field", "order": 9, "modulus_poly": [1, 0, 1]},
            "cells": grid})
        code, out, _ = run_cli(capsys, "verify", path, "--json")
        assert code == 2
        assert json.loads(out)["is_magic_square_of_squares"] is False

    @pytest.mark.parametrize("cell", [[True, 1], [5, -1], [3], 9, True])
    def test_non_canonical_extension_cell_exits_1(self, capsys, tmp_path,
                                                  cell):
        # over F_9 only [c0, c1] with 0 <= c < 3, or 0..8, encode a cell
        path = self.write(tmp_path, {
            "carrier": {"kind": "field", "order": 9},
            "cells": [cell] + [0] * 8})
        code, out, err = run_cli(capsys, "verify", path)
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_malformed_file_exits_1(self, capsys, tmp_path):
        path = self.write(tmp_path, {"cells": [1] * 9})
        code, _, err = run_cli(capsys, "verify", path)
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("carrier", [
        {"kind": "field", "order": 29, "modulus_poly": [1, 1, 1]},
        {"kind": "ring", "order": 29, "modulus_poly": [1, 1, 1]},
        {"kind": "field", "order": 9, "modulus_poly": []}])
    def test_misplaced_or_empty_modulus_exits_1(self, capsys, tmp_path,
                                                 carrier):
        path = self.write(tmp_path, {"carrier": carrier, "cells": [0] * 9})
        code, out, err = run_cli(capsys, "verify", path)
        assert code == 1
        assert out == ""
        assert "modulus" in err

    @pytest.mark.parametrize("carrier,field", [
        ({"kind": "field", "order": 9, "modulus_poly": 5}, "modulus_poly"),
        ({"kind": "field", "order": "29"}, "order"),
        ({"kind": "ring", "order": True}, "order")])
    def test_wrongly_typed_carrier_field_exits_1(self, capsys, tmp_path,
                                                 carrier, field):
        path = self.write(tmp_path, {"carrier": carrier, "cells": [0] * 9})
        code, out, err = run_cli(capsys, "verify", path)
        assert code == 1
        assert out == ""
        assert err.startswith("parker: error: malformed square file")
        assert field in err and len(err.splitlines()) == 1

    def test_wrong_cell_count_exits_1(self, capsys, tmp_path):
        path = self.write(tmp_path, {"carrier": {"kind": "int"},
                                     "cells": [1, 2, 3]})
        code, _, _ = run_cli(capsys, "verify", path)
        assert code == 1


class TestSmallCommands:
    def test_congruum(self, capsys):
        code, out, _ = run_cli(capsys, "congruum", "3", "2", "1")
        assert code == 0
        assert out == "r=17 s=13 t=-7 congruum=120\n"

    def test_chi(self, capsys):
        code, out, _ = run_cli(capsys, "chi", "33", "4")
        assert code == 0
        assert out == "r=1337 s=1105 t=809\n"

    def test_usage_error_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "chi", "not-a-number", "4")
        assert code == 1

    def test_unknown_command_exits_1(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1


# ---------------------------------------------------------------------------
# main reads a canonical command line without argparse: whatever it reads
# so, argparse reads the same.

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parsed(argv):
    """vars() of argparse's namespace for argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None


# tokens an argument's value is drawn from: canonical ones, and ones that
# int() or argparse reads otherwise, or not at all
PLAIN_INTS = ("1", "4", "27", "1001")
ODD_INTS = ("-3", "+4", "4_0", " 4", "x", "")
PLAIN_STRINGS = ("sq.json", "run/ckpt.jsonl", "")


def _value(draw, keywords):
    """(token, plain) for an argument that takes a value."""
    if "choices" in keywords:
        choices = tuple(keywords["choices"])
        token = draw(st.sampled_from(choices + ("bogus",)))
        return token, token in choices
    if keywords.get("type") is int:
        token = draw(st.sampled_from(PLAIN_INTS + ODD_INTS))
        return token, token in PLAIN_INTS
    return draw(st.sampled_from(PLAIN_STRINGS)), True


@st.composite
def command_lines(draw):
    """(argv, plain): a command line drawn from the CLI's command table,
    and whether it was drawn canonical.  The lines that are not put in
    abbreviations, --opt=value, repeats, odd ints, values outside the
    choices, a missing positional or required option, both options of an
    exclusive group, -h, -vv or a late -v."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    plain = True
    chunks, positionals = [], []
    for entry in cli._COMMANDS[name][2]:
        if isinstance(entry[0], str):
            members = [entry]
            if entry[0][0] == "-" and not entry[1].get("required"):
                members = draw(st.sampled_from([[], members]))
        else:
            members = draw(st.sampled_from(
                [[], *([m] for m in entry), list(entry)]))
            plain &= len(members) < 2
        for flag, keywords in members:
            takes = keywords.get("action") != "store_true"
            value, ok = _value(draw, keywords) if takes else (None, True)
            plain &= ok
            if flag[0] != "-":
                positionals.append(value)
            else:
                chunks.append([flag] + [value] * takes)
    flaws = draw(st.sets(st.sampled_from(
        ("abbreviation", "equals", "repeat", "drop", "help", "-vv",
         "late -v")), max_size=2))
    plain &= not flaws
    if "repeat" in flaws and chunks:
        chunks.append(list(draw(st.sampled_from(chunks))))
    if "abbreviation" in flaws and chunks:
        chunk = draw(st.sampled_from(chunks))
        chunk[0] = chunk[0][:draw(st.integers(2, len(chunk[0]) - 1))]
    if "equals" in flaws and any(len(c) == 2 for c in chunks):
        chunk = draw(st.sampled_from([c for c in chunks if len(c) == 2]))
        chunk[:] = ["=".join(chunk)]
    chunks = draw(st.permutations(chunks))
    if "drop" in flaws and chunks + positionals:
        i = draw(st.integers(0, len(chunks) + len(positionals) - 1))
        if i < len(chunks):
            chunks = chunks[:i] + chunks[i + 1:]
        else:
            del positionals[i - len(chunks)]
    # the positionals keep their order among the options
    at = 0
    for value in positionals:
        at = draw(st.integers(at, len(chunks)))
        chunks.insert(at, [value])
        at += 1
    argv = [name] + [token for chunk in chunks for token in chunk]
    if "late -v" in flaws:
        argv.insert(draw(st.integers(1, len(argv))), "-v")
    if "help" in flaws:
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(("-h", "--help"))))
    lead = draw(st.sampled_from(((), ("-v",), ("--verbose",))))
    if "-vv" in flaws:
        lead = ("-vv",)
    return [*lead, *argv], plain


class TestCanonicalReader:
    @settings(max_examples=400, deadline=None)
    @given(command_lines())
    def test_reads_as_argparse_does(self, line):
        argv, plain = line
        read = cli._canonical(argv)
        assert read is not None or not plain
        if read is not None:
            assert vars(read) == _parsed(argv)

    @staticmethod
    def bench_lines(monkeypatch):
        spec = importlib.util.spec_from_file_location(
            "bench_workloads", os.path.join(ROOT, "bench", "workloads.py"))
        workloads = importlib.util.module_from_spec(spec)
        # its dataclass looks its module up
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        files = {"ckpt": "scan.ckpt", "out": "scan.csv"}
        return [argv for w in workloads.WORKLOADS
                for scale in ("full", "tiny", "setup")
                for argv in w.commands(scale, files)]

    @staticmethod
    def ci_lines():
        """The arguments of each parker command and forbid call in the CI
        workflow, up to the first shell operator."""
        path = os.path.join(ROOT, ".github", "workflows", "tests.yml")
        with open(path, encoding="utf-8") as fh:
            text = fh.read().replace("\\\n", " ")
        command = re.compile(r"(?:^\s*|\$\(|;\s*)(?:parker|forbid '[^']*')"
                             r"\s+([^|>;)]*)")
        return [shlex.split(m[1]) for line in text.splitlines()
                if not line.lstrip().startswith("#")
                for m in command.finditer(line)]

    def test_reads_every_benchmark_and_ci_line(self, monkeypatch):
        bench, ci = self.bench_lines(monkeypatch), self.ci_lines()
        assert len(bench) == 12 and len(ci) > 30
        for argv in bench + ci:
            read = cli._canonical(argv)
            assert read is not None, argv
            assert vars(read) == _parsed(argv)

    def test_declines_a_repeated_verbose_flag(self):
        # argparse reads -vv as -v twice; the reader leaves it to argparse
        assert cli._canonical(["-vv", "hourglass", "--mode", "exhaustive",
                               "--max-norm", "2000"]) is None
