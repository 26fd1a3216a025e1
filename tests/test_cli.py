"""Command line surface: routing, exit codes, determinism, JSON round trips."""

import ast
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cablekit
from cablekit.cli import main
from cablekit.openbook import BindingComponent, RationalOpenBook
from cablekit.words import TwistWord
from cli_runner import run_main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def trefoil_path(tmp_path):
    book = RationalOpenBook(
        genus=1,
        components=(BindingComponent(1, 0),),
        monodromy=TwistWord.twists("c1", "c2"),
    )
    path = tmp_path / "trefoil.json"
    path.write_text(json.dumps(book.to_json()))
    return str(path)


@pytest.fixture
def rational_path(tmp_path):
    book = RationalOpenBook(genus=1, components=(BindingComponent(3, -1),))
    path = tmp_path / "rational.json"
    path.write_text(json.dumps(book.to_json()))
    return str(path)


class TestSlopes:
    def test_exceptional(self, capsys):
        code, out, _ = run_cli(["slopes", "exceptional", "-1/3"], capsys)
        assert code == 0 and out.strip() == "[-1/2, -1]"

    def test_exceptional_json(self, capsys):
        code, out, _ = run_cli(["--json", "slopes", "exceptional", "-1/3"], capsys)
        assert code == 0
        assert json.loads(out) == {"exceptional_slopes": ["-1/2", "-1"]}

    def test_path(self, capsys):
        code, out, _ = run_cli(["slopes", "path", "-1", "-3/7"], capsys)
        assert code == 0 and out.strip() == "-1 -> -1/2 -> -3/7"

    def test_ncf(self, capsys):
        code, out, _ = run_cli(["slopes", "ncf", "-3/7"], capsys)
        assert code == 0 and out.strip() == "[-3, -2, -2]"

    def test_domain_error_is_exit_2(self, capsys):
        code, _, err = run_cli(["slopes", "ncf", "1/2"], capsys)
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("argv, message", [
        (["slopes", "path", "-1"], "slopes path takes two slopes"),
        (["slopes", "exceptional", "-1/3", "-1/2"], "slopes exceptional takes one slope"),
        (["slopes", "ncf", "-3/7", "-1/2"], "slopes ncf takes one slope"),
    ], ids=["path", "exceptional", "ncf"])
    def test_slope_count_is_checked(self, capsys, argv, message):
        assert run_cli(argv, capsys) == (2, "", f"error: {message}\n")

    def test_an_unknown_op_is_refused_by_the_parser(self, capsys):
        code, out, err = run_cli(["slopes", "bogus", "1/2"], capsys)
        assert (code, out) == (2, "") and "invalid choice" in err and "bogus" in err

    def test_file_named_slopes_is_no_subcommand(self, trefoil_path, tmp_path, monkeypatch,
                                                capsys):
        (tmp_path / "slopes").write_text(Path(trefoil_path).read_text())
        monkeypatch.chdir(tmp_path)
        argv = ["--json", "classify", "--book", "slopes", "--cable", "2,1"]
        assert run_cli(argv, capsys) == run_cli([*argv[:3], trefoil_path, *argv[4:]], capsys)
        assert run_cli(argv, capsys)[0] == 0


class TestInternalErrorNet:
    @pytest.mark.parametrize("exc, message", [(MemoryError(), "MemoryError"),
                                              (RuntimeError("boom"), "boom")],
                             ids=["empty", "message"])
    def test_an_unexpected_exception_is_exit_1_and_named(self, exc, message, monkeypatch,
                                                         capsys):
        # the net names an exception by its message, or by its type when the
        # message is empty, as a MemoryError's usually is
        import cablekit.cli

        def failing(args):
            raise exc

        monkeypatch.setattr(cablekit.cli, "cmd_slopes", failing)
        assert run_cli(["slopes", "ncf", "-3/7"], capsys) == (1, "", f"internal error: {message}\n")


class TestTorusKnot:
    def test_json(self, capsys):
        code, out, _ = run_cli(
            ["--json", "torus-knot", "--r", "4", "--s", "1", "--k", "2", "--l", "1"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["euler_characteristic"] == 0
        assert payload["boundary_count"] == 2
        assert payload["order"] == 2


class TestClassify:
    def test_routed_example(self, trefoil_path, capsys):
        code, out, _ = run_cli(
            ["--json", "classify", "--book", trefoil_path, "--cable", "2,3"], capsys
        )
        assert code == 0
        assert json.loads(out)["kind"] == "SameContact"

    def test_overtwisted(self, rational_path, capsys):
        code, out, _ = run_cli(
            ["--json", "classify", "--book", rational_path, "--cable", "3,-2"], capsys
        )
        assert json.loads(out)["kind"] == "Overtwisted"

    def test_validation_error_exit_2(self, trefoil_path, capsys):
        code, _, err = run_cli(
            ["classify", "--book", trefoil_path, "--cable", "0,1"], capsys
        )
        assert code == 2


_DISK = {"order": 1, "seifert_numerator": 0}


class TestPipelines:
    def test_surgery_then_resolve_round_trip(self, trefoil_path, tmp_path, capsys):
        code, out, _ = run_cli(
            ["--json", "surgery", "--book", trefoil_path, "--coefficient", "-5"],
            capsys,
        )
        assert code == 0
        surgered = json.loads(out)["book"]
        assert surgered["components"][0]["order"] == 5
        path = tmp_path / "surgered.json"
        path.write_text(json.dumps(surgered))
        code, out, _ = run_cli(["--json", "resolve", "--book", str(path)], capsys)
        assert code == 0
        resolved = json.loads(out)
        assert resolved["genus"] == 1
        assert resolved["boundary_count_of_page"] == 5

    def test_cable_page(self, trefoil_path, capsys):
        code, out, _ = run_cli(
            ["--json", "cable-page", "--book", trefoil_path, "--cable", "2,1"], capsys
        )
        assert json.loads(out)["genus"] == 2

    @pytest.mark.parametrize("command, first, cable, message", [
        ("cable-page", _DISK, "2,1;3,1", "honest cabled pages need one |p| across components"),
        ("monodromy", {"order": 3, "seifert_numerator": -1}, "2,1",
         "cable words are built for integral books"),
    ], ids=["two-magnitudes-of-p", "rational-disconnected-binding"])
    def test_two_component_book_refusal(self, tmp_path, command, first, cable, message):
        book = tmp_path / "two.json"
        book.write_text(json.dumps({"genus": 1, "components": [first, _DISK]}))
        assert run_main([command, "--book", str(book), "--cable", cable]) == (
            2, "", f"error: {message}\n")

    def test_monodromy(self, trefoil_path, capsys):
        code, out, _ = run_cli(
            ["--json", "monodromy", "--book", trefoil_path, "--cable", "2,1"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["page"]["genus"] == 2
        assert len(payload["word"]) == 2 + 15 + 2


class TestObstruction:
    def test_p1(self, capsys):
        code, out, _ = run_cli(["--json", "obstruction", "--p", "1"], capsys)
        payload = json.loads(out)
        assert payload["verdict"] == "OBSTRUCTED"
        assert payload["mod10_length"] == 3
        assert payload["required_mod10"] == 4

    def test_pretty(self, capsys):
        code, out, _ = run_cli(["obstruction", "--p", "7"], capsys)
        assert "OBSTRUCTED" in out


class TestWordsAndScripts:
    def test_replay_script(self, capsys):
        code, out, _ = run_cli(
            ["--json", "replay-script", "negative_cable_positive_refactor"], capsys
        )
        payload = json.loads(out)
        assert payload["all_positive"] and payload["verified"]

    @pytest.mark.parametrize("name", ["stabilize_21_to_22", "garside_square_boundary"])
    def test_replay_builds_only_the_bundle_it_replays(self, capsys, monkeypatch, name):
        from cablekit import library
        built = []
        for key, build in library.SCRIPT_BUILDERS.items():
            monkeypatch.setitem(library.SCRIPT_BUILDERS, key,
                                lambda key=key, build=build: built.append(key) or build())
        assert run_cli(["--json", "replay-script", name], capsys)[0] == 0
        assert built == [name]

    def test_replay_unknown_exit_2(self, capsys):
        code, _, err = run_cli(["replay-script", "nope"], capsys)
        assert code == 2

    def test_verify_word(self, tmp_path, capsys):
        w1 = TwistWord.twists("n1_1", "n1_2")
        w2 = TwistWord.twists("n1_1", "n1_2")
        p1 = tmp_path / "w1.json"
        p2 = tmp_path / "w2.json"
        p1.write_text(json.dumps(w1.to_json()))
        p2.write_text(json.dumps(w2.to_json()))
        code, out, _ = run_cli(
            ["--json", "verify-word", "--system", "sigma22_g1", str(p1), str(p2)],
            capsys,
        )
        assert code == 0 and json.loads(out)["equal_on_homology"]

    def test_verify_word_unequal_returns_2(self, tmp_path, capsys):
        # "not equal" is an answer: main returns it rather than raising SystemExit
        p1, p2 = tmp_path / "w1.json", tmp_path / "w2.json"
        p1.write_text(json.dumps(TwistWord.twists("n1_1").to_json()))
        p2.write_text(json.dumps(TwistWord.twists("n1_2").to_json()))
        code, out, err = run_cli(
            ["--json", "verify-word", "--system", "sigma22_g1", str(p1), str(p2)],
            capsys,
        )
        assert (code, json.loads(out), err) == (2, {"equal_on_homology": False}, "")

    @pytest.mark.parametrize("curve", ["zzz", "c1"])
    def test_verify_word_refuses_a_fractional_twist_about_no_boundary(self, tmp_path, capsys,
                                                                     curve):
        # a fractional twist acts trivially on homology only as a twist about
        # a boundary of the system; c1 is a curve of the page, no boundary
        word, empty = tmp_path / "w.json", tmp_path / "e.json"
        word.write_text(json.dumps([{"kind": "fractional", "curve": curve, "amount": "5/2"}]))
        empty.write_text("[]")
        code, out, err = run_cli(
            ["verify-word", "--system", "sigma22_g1", str(word), str(empty)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: boundary {curve!r} not in system 'sigma22_g1_script'\n"

    def test_compose_cobordism(self, trefoil_path, tmp_path, capsys):
        w = tmp_path / "w.json"
        w.write_text(json.dumps(TwistWord.twists("c1").to_json()))
        code, out, _ = run_cli(
            ["--json", "compose-cobordism", "--page", trefoil_path, str(w), str(w)],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["certificate"]["conjugation_lands_on_nodule_1"]


class TestBookBoundary:
    def test_missing_genus_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "book.json"
        path.write_text(json.dumps({"components": [{"order": 1, "seifert_numerator": 0}]}))
        code, _, err = run_cli(["classify", "--book", str(path), "--cable", "2,1"], capsys)
        assert code == 2 and err.startswith("error:") and "'genus'" in err

    def test_negative_genus_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "book.json"
        path.write_text(json.dumps(
            {"genus": -3, "components": [{"order": 1, "seifert_numerator": 0}]}
        ))
        code, out, err = run_cli(
            ["--json", "cable-page", "--book", str(path), "--cable", "2,1"], capsys
        )
        assert (code, out) == (2, "") and err.startswith("error:") and "genus" in err

    @pytest.mark.parametrize(
        "argv, book",
        [
            (["classify", "--cable", "2,1"], [1, 2]),
            (["cable-page", "--cable", "2,1"], {"genus": None, "components": [_DISK]}),
            (["cable-page", "--cable", "2,1"], {"genus": True, "components": [_DISK]}),
            (["classify", "--cable", "2,1"], {"genus": 1, "components": _DISK}),
            (["classify", "--cable", "2,1"], {"genus": 1, "components": [[1, 0]]}),
            (["cable-page", "--cable", "2,1"],
             {"genus": 1, "components": [{"order": "1", "seifert_numerator": 0}]}),
            (["classify", "--cable", "2,1"],
             {"genus": 1, "components": [{"order": 1, "seifert_numerator": 0.5}]}),
            (["monodromy", "--cable", "2,2"],
             {"genus": 1, "components": [{"order": 1, "seifert_numerator": False}]}),
            (["classify", "--cable", "2,-1"],  # a string flag must not pick the verdict
             {"genus": 0, "components": [{"order": 3, "seifert_numerator": -1}],
              "rational_unknot": "false"}),
            (["resolve"],  # metadata is echoed into the output, so only strings pass
             {"genus": 0, "components": [{"order": 3, "seifert_numerator": -1}],
              "metadata": {"a": [1, {"b": None}]}}),
        ],
    )
    def test_field_types_are_exit_2(self, tmp_path, capsys, argv, book):
        path = tmp_path / "book.json"
        path.write_text(json.dumps(book))
        code, out, err = run_cli(["--json", *argv, "--book", str(path)], capsys)
        assert (code, out) == (2, "") and err.startswith("error:")


class TestStoredCounts:
    """A book file may repeat the counts the binding determines; a repeated
    count that disagrees with gcd(r, s) is refused, an explicit 0 included."""

    @pytest.mark.parametrize("book, message", [
        ({"genus": 1, "components": [{"order": 4, "seifert_numerator": -2, "multiplicity": 1}]},
         "component (4, -2): multiplicity 1 != gcd-rule value 2"),
        ({"genus": 1, "components": [{"order": 3, "seifert_numerator": 0, "multiplicity": 1}]},
         "component (3, 0): multiplicity 1 != gcd-rule value 3"),
        ({"genus": 1, "components": [{"order": 1, "seifert_numerator": 0, "multiplicity": 0}]},
         "component (1, 0): multiplicity 0 != gcd-rule value 1"),
        ({"genus": 0, "components": [_DISK], "boundary_count_of_page": 2},
         "boundary count mismatch: page has 2 boundary circles but component multiplicities "
         "total 1"),
        ({"genus": 1, "components": [_DISK], "boundary_count_of_page": 0},
         "boundary count mismatch: page has 0 boundary circles"),
    ], ids=["multiplicity", "multiplicity_s0", "multiplicity_zero", "boundary_count",
            "boundary_count_zero"])
    def test_disagreeing_count_is_exit_2(self, tmp_path, book, message):
        path = tmp_path / "book.json"
        path.write_text(json.dumps(book))
        code, out, err = run_main(["--json", "resolve", "--book", str(path)])
        assert (code, out) == (2, "") and err.startswith("error: ") and message in err, err

    def test_agreeing_counts_are_accepted(self, tmp_path):
        book = {"genus": 1, "components": [{"order": 3, "seifert_numerator": 0,
                                            "multiplicity": 3}, _DISK],
                "boundary_count_of_page": 4}
        path = tmp_path / "book.json"
        path.write_text(json.dumps(book))
        code, out, err = run_main(["--json", "resolve", "--book", str(path), "--l=1"])
        assert (code, err) == (0, "") and json.loads(out)["genus"] == 3


class TestSurgeryBoundary:
    @pytest.mark.parametrize("component", ["1", "5", "-1"])
    def test_missing_component_is_exit_2(self, trefoil_path, capsys, component):
        code, out, err = run_cli(
            ["--json", "surgery", "--book", trefoil_path, "--component", component,
             "--coefficient", "-5"], capsys,
        )
        assert (code, out, err) == (2, "", f"error: no component {component}\n")


class TestInputPaths:
    @pytest.mark.parametrize("argv", [
        ["classify", "--cable", "2,1", "--book"],
        ["compose-cobordism", "--page"],
    ])
    @pytest.mark.parametrize("name", ["", "none.json"])  # the directory itself, a missing file
    def test_unreadable_path_is_exit_2(self, tmp_path, capsys, argv, name):
        word = tmp_path / "w.json"
        word.write_text(json.dumps(TwistWord.twists("c1").to_json()))
        words = [str(word), str(word)] if argv[0] == "compose-cobordism" else []
        code, out, err = run_cli(["--json", *argv, str(tmp_path / name), *words], capsys)
        assert (code, out) == (2, "") and err.startswith("error: [Errno")


class TestNestingBoundary:
    @pytest.mark.parametrize("command", ["classify", "verify-word", "compose-cobordism"])
    def test_deeply_nested_file_is_exit_2(self, trefoil_path, tmp_path, capsys, command):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        argv = {"classify": ["classify", "--book", str(deep), "--cable", "2,1"],
                "verify-word": ["verify-word", "--system", "sigma22_g1", str(deep), str(deep)],
                "compose-cobordism": ["compose-cobordism", "--page", trefoil_path, str(deep),
                                      str(deep)]}[command]
        assert run_cli(["--json", *argv], capsys) == (
            2, "", f"error: {deep}: JSON nested too deeply\n")

    @pytest.mark.parametrize("content, reason", [
        (b'{"genus": 1, ', "Expecting property name"),
        ("[1, 2, 3]".encode("utf-16"), "'utf-8' codec can't decode"),
        (b"[" + b"7" * 5000 + b"]", "sys.set_int_max_str_digits()"),
    ], ids=["truncated", "not-utf-8", "5000-digit-integer"])
    def test_file_that_does_not_decode_is_named(self, trefoil_path, tmp_path, capsys,
                                                content, reason):
        # compose-cobordism reads three files; the message names the bad one
        word = tmp_path / "word.json"
        word.write_text(json.dumps(TwistWord.twists("c1").to_json()))
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        for argv in (["classify", "--book", str(bad), "--cable", "2,1"],
                     ["compose-cobordism", "--page", trefoil_path, str(word), str(bad)]):
            code, out, err = run_cli(["--json", *argv], capsys)
            assert (code, out) == (2, "") and err.startswith(f"error: {bad}: "), err
            assert reason in err and err.count("\n") == 1, err


class TestWordBoundary:
    @pytest.mark.parametrize(
        "word",
        [
            [{"kind": "dehn", "sign": 1}],
            [{"curve": "c1", "sign": 1}],
            [{"kind": "dehn", "curve": 1}],
            [{"kind": "dehn", "curve": "c1", "sign": True}],
            [["dehn", "c1", 1]],
            {"kind": "dehn", "curve": "c1"},
            7,
            [{"kind": "fractional", "curve": "1", "sign": 7, "amount": "1/2"}],
            [{"kind": "fractional", "curve": "1", "sign": -1, "amount": "1/2"}],
        ],
    )
    @pytest.mark.parametrize("command", ["verify-word", "compose-cobordism"])
    def test_malformed_word_is_exit_2(self, trefoil_path, tmp_path, capsys, word, command):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(word))
        good = tmp_path / "good.json"
        good.write_text(json.dumps(TwistWord.twists("c1").to_json()))
        context = ["--system", "sigma22_g1"] if command == "verify-word" else [
            "--page", trefoil_path]
        code, out, err = run_cli(
            ["--json", command, *context, str(good), str(bad)], capsys
        )
        assert (code, out) == (2, "") and err.startswith("error:")


def _names_its_argument(code, out, err, name):
    """Exit 2 with one `error:` line naming the argument, and no raw Python
    text from an unpack, an int() or a Fraction."""
    return ((code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1
            and name in err and not any(raw in err for raw in ("unpack", "literal", "Fraction(")))


class TestPairBoundary:
    @pytest.mark.parametrize(
        "argv, flag",
        [([command, "--cable", cable], "--cable")
         for command in ("monodromy", "classify", "cable-page")
         for cable in ("2", "2,1,3", "a,b")]
        + [(["monodromy", "--cable", "2,1;3,1"], "--cable"), (["resolve", "--l", "1,x"], "--l")],
    )
    def test_malformed_flag_is_named(self, trefoil_path, rational_path, capsys, argv, flag):
        book = rational_path if argv[0] == "resolve" else trefoil_path
        code, out, err = run_cli(["--json", *argv, "--book", book], capsys)
        assert _names_its_argument(code, out, err, flag), err

    @pytest.mark.parametrize("amount", ["x", "1/2/3", "1/0"])
    @pytest.mark.parametrize("command", ["verify-word", "compose-cobordism"])
    def test_malformed_amount_is_named(self, trefoil_path, tmp_path, capsys, command, amount):
        word = tmp_path / "w.json"
        word.write_text(json.dumps([{"kind": "fractional", "curve": "1", "amount": amount}]))
        context = ["--system", "sigma22_g1"] if command == "verify-word" else [
            "--page", trefoil_path]
        code, out, err = run_cli(["--json", command, *context, str(word), str(word)], capsys)
        assert _names_its_argument(code, out, err, "'amount'"), err


class TestNegativeValues:
    """A value that starts with '-' and a digit is read as a value, written
    after its option or joined to it with '='; bare slopes of `slopes` too."""

    @pytest.mark.parametrize("argv", [
        ["classify", "--cable", "-2,1"],
        ["cable-page", "--cable", "-2,1"],
        ["surgery", "--coefficient", "-1/3"],
        ["resolve", "--l", "-1,0"],
    ], ids=["classify", "cable-page", "surgery", "resolve"])
    def test_split_value_answers_as_the_joined_one(self, trefoil_path, tmp_path, argv):
        book = trefoil_path
        if argv[0] == "resolve":  # l = -1 exceeds the Seifert numerator -2
            book = tmp_path / "rational2.json"
            book.write_text(json.dumps({"genus": 1, "components": [
                {"order": 3, "seifert_numerator": -2}, {"order": 2, "seifert_numerator": -1}]}))
        command, flag, value = argv
        split = run_main(["--json", command, "--book", str(book), flag, value])
        assert split == run_main(["--json", command, "--book", str(book), f"{flag}={value}"])
        assert split[0] == 0 and split[2] == "", split

    @pytest.mark.parametrize("argv", [
        ["slopes", "path", "-1", "-3/7"],
        ["slopes", "exceptional", "-1/3"],
        ["slopes", "ncf", "-3/7"],
    ], ids=["path", "exceptional", "ncf"])
    def test_bare_slopes_answer_as_after_a_double_dash(self, argv):
        plain = run_main(["--json", *argv])
        assert plain == run_main(["--json", *argv[:2], "--", *argv[2:]])
        assert plain[0] == 0 and plain[2] == "", plain


def _dehn(*curves):
    return [{"kind": "dehn", "curve": c, "sign": 1} for c in curves]


class TestLiftBoundary:
    """A page curve outside the page model, the chain c1..c{2g+1} and bdry_1,
    has no image on any cable page, even when the cable page has a curve of
    that name: it would become the cable curve."""

    @pytest.mark.parametrize("command, curve", [
        (["monodromy", "--cable=2,1"], "x1"),  # the crossing curve of the (2,1) page
        (["monodromy", "--cable=2,2"], "rho22_1"),  # a (2,2) rotation curve
        (["compose-cobordism"], "e3"),  # a curve of the (2,2) covering chain
    ])
    def test_curve_of_the_cable_page_is_refused(self, tmp_path, command, curve):
        book = {"genus": 1, "components": [_DISK], "monodromy": _dehn("c1", curve)}
        assert self.run(tmp_path, command, book, _dehn("c1", curve)) == (
            2, "", f"error: curve {curve} has no nodule model\n")

    @pytest.mark.parametrize("command, book, curve", [
        # c1_2 and c1_1 name band curves of the disconnected (2,1) page
        (["monodromy", "--cable=2,1"], {"genus": 1, "components": [_DISK, _DISK],
                                        "monodromy": _dehn("alpha", "c1_2")}, "alpha"),
        (["compose-cobordism"], {"genus": 1, "components": [_DISK, _DISK]}, "c1_1"),
        # x1 names no page curve of the (2,-1)-book
        (["monodromy", "--cable=1,-1"], {"genus": 1, "components": [
            {"order": 2, "seifert_numerator": -1}], "monodromy": [
            {"kind": "fractional", "curve": "bdry_1", "amount": "1/2"}, *_dehn("x1")]}, "x1"),
    ], ids=["disconnected", "disconnected-cobordism", "negative-r2"])
    def test_name_outside_the_model_is_refused_on_every_page(self, tmp_path, command, book,
                                                             curve):
        assert self.run(tmp_path, command, book, _dehn(curve)) == (
            2, "", f"error: curve {curve} has no nodule model\n")

    @pytest.mark.parametrize("command, curves", [
        (["monodromy", "--cable=2,2"], ("c4", "bdry_2")),
        (["compose-cobordism"], ("c4", "bdry_2")),
        (["monodromy", "--cable=2,1"], ("bdry_7",)),
    ], ids=["r22", "cobordism", "p1-boundary"])
    def test_name_past_the_page_model_is_refused(self, tmp_path, command, curves):
        # c3 and bdry_1 lift on every connected page; the next name does not
        for curve in curves:
            word = _dehn("c3", "bdry_1", curve)
            book = {"genus": 1, "components": [_DISK], "monodromy": word}
            assert self.run(tmp_path, command, book, word) == (
                2, "", f"error: curve {curve} has no nodule model\n")

    @pytest.mark.parametrize("cable", ["2,1", "2,2", "3,2"])
    def test_letter_that_is_no_dehn_twist_is_refused(self, tmp_path, cable):
        book = {"genus": 1, "components": [_DISK], "monodromy": [
            *_dehn("c1"), {"kind": "fractional", "curve": "nowhere", "amount": "1/3"},
            {"kind": "stab", "curve": "junk"}]}
        assert self.run(tmp_path, ["monodromy", f"--cable={cable}"], book, []) == (
            2, "", "error: only Dehn twists lift to a nodule, got delta_{1/3}(nowhere)\n")

    @pytest.mark.parametrize("components", [[_DISK], [_DISK, _DISK]], ids=["connected",
                                                                          "disconnected"])
    def test_cobordism_refuses_letters_that_are_no_dehn_twists(self, tmp_path, components):
        page, w1, w2 = (tmp_path / name for name in ("page.json", "w1.json", "w2.json"))
        page.write_text(json.dumps({"genus": 1, "components": components}))
        w1.write_text(json.dumps([{"kind": "stab", "curve": "s"}]))
        w2.write_text(json.dumps([{"kind": "fractional", "curve": "1", "amount": "1/3"}]))
        code, out, err = run_main(["compose-cobordism", "--page", str(page), str(w1), str(w2)])
        assert (code, out) == (2, "")
        assert err.startswith("error: only Dehn twists lift to a nodule, got ")

    @staticmethod
    def run(tmp_path, command, book, word):
        """Run `command` on `book`; compose-cobordism composes `word` with itself."""
        path, word_path = tmp_path / "book.json", tmp_path / "w.json"
        path.write_text(json.dumps(book))
        word_path.write_text(json.dumps(word))
        if command[0] == "monodromy":
            return run_main([*command, "--book", str(path)])
        return run_main([*command, "--page", str(path), str(word_path), str(word_path)])


def _framed_book(genus, r, s):
    """A one-component book in the framing with Seifert numerator s, with
    a word on its chain (after a 1/r fractional twist when r > 1)."""
    word = [{"kind": "dehn", "curve": f"c{i}", "sign": 1} for i in range(1, 2 * genus + 1)]
    if r > 1:
        word.insert(0, {"kind": "fractional", "curve": "bdry_1", "amount": f"1/{r}"})
    return {"genus": genus, "components": [{"order": r, "seifert_numerator": s}],
            "monodromy": word}


def _page_view(result):
    """Exit, page genus, boundary count, word and stderr of a `resolve` run:
    the integral components it keeps print in their written framing."""
    code, out, err = result
    if code:
        return result
    page = json.loads(out)
    return code, page["genus"], page["boundary_count_of_page"], page.get("monodromy"), err


class TestWindowFraming:
    """Book commands read their flags in the book's own framing: reframing a
    component by k (s -> s + k r), together with a --cable pair (q -> q + k p)
    or a --coefficient (a/b -> (a + k b)/b), changes no answer of classify,
    cable-page, monodromy, resolve, surgery or compose-cobordism."""

    @staticmethod
    def run(tmp, command, book, *flags):
        path = tmp / "book.json"
        path.write_text(json.dumps(book))
        where = "--page" if command == "compose-cobordism" else "--book"
        return run_main(["--json", command, where, str(path), *flags])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_answers_do_not_depend_on_the_framing(self, tmp_path_factory, data):
        r = data.draw(st.sampled_from([1, 1, 2, 3, 4, 5]), "order")
        s = data.draw(st.integers(1 - r, 0), "window numerator")
        k = data.draw(st.integers(-6, 6) if r == 1 else st.integers(-2, 2), "reframing")
        genus = data.draw(st.integers(0, 2), "genus")
        command = data.draw(st.sampled_from(["classify", "cable-page", "monodromy", "resolve",
                                             "surgery", "compose-cobordism"]), "command")
        tmp = tmp_path_factory.mktemp("framing")
        view = _page_view if command == "resolve" else (lambda result: result[:2])
        if command == "resolve":
            l = data.draw(st.integers(s - 1, 2), "l")
            framed_flags, window_flags = ([f"--l={l + k * r}"], [f"--l={l}"]) if r > 1 else ([], [])
        elif command == "surgery":
            a, b = data.draw(st.integers(-6, 6), "a"), data.draw(st.integers(1, 3), "b")
            framed_flags = [f"--coefficient={a + k * b}/{b}"]
            window_flags = [f"--coefficient={a}/{b}"]
        elif command == "compose-cobordism":
            for name in ("w1.json", "w2.json"):
                curves = data.draw(st.lists(st.sampled_from(["c1", "c2", "c3", "c4"]), max_size=3))
                (tmp / name).write_text(json.dumps(_dehn(*curves)))
            framed_flags = window_flags = [str(tmp / "w1.json"), str(tmp / "w2.json")]
        else:
            p = data.draw(st.sampled_from([1, 2, 3, 4, 5, -2, -3]), "p")
            q = data.draw(st.integers(-8, 8), "window q")
            framed_flags, window_flags = [f"--cable={p},{q + k * p}"], [f"--cable={p},{q}"]
        framed = self.run(tmp, command, _framed_book(genus, r, s + k * r), *framed_flags)
        window = self.run(tmp, command, _framed_book(genus, r, s), *window_flags)
        assert view(framed) == view(window), (command, framed, window)
        assert framed[0] in (0, 2)

    def test_resolve_counts_the_same_circles_in_every_framing(self, tmp_path):
        # gcd(3, 0) = gcd(3, 3) = 3: the page meets the component in 3 circles;
        # the (3, 3) copy is the (3, 0) book reframed by 1, so l = 1 reads 4 there
        answers = {self.run(tmp_path, "resolve", {"genus": 1, "components": [
            {"order": 3, "seifert_numerator": s}]}, f"--l={l}") for s, l in ((0, 1), (3, 4))}
        assert len(answers) == 1
        code, out, _ = answers.pop()
        assert code == 0 and json.loads(out)["genus"] == 3

    @pytest.mark.parametrize("s, coefficient", [(-2, "-3"), (3, "2")], ids=["s=-2", "s=3"])
    def test_surgery_coefficient_is_read_in_the_window(self, tmp_path, s, coefficient):
        # a r - b s = -1 in both framings: the window's -1 surgery, whose
        # word gains a right-handed 1/1 twist about the new core
        book = {"genus": 1, "components": [{"order": 1, "seifert_numerator": s}],
                "monodromy": _dehn("c1")}
        framed = self.run(tmp_path, "surgery", book, f"--coefficient={coefficient}")
        window = self.run(tmp_path, "surgery", {**book, "components": [_DISK]},
                          "--coefficient=-1")
        assert framed == window
        assert json.loads(framed[1])["book"]["monodromy"][-1]["amount"] == "1/1"

    def test_reframed_rational_book_gives_the_golden_word(self, tmp_path):
        # the (3,-1)-book written with Seifert numerator 2: its (2,-1)-cable
        # is the pair (2,1) there
        book = json.loads((GOLDEN / "inputs" / "rational_3m1.json").read_text(encoding="utf-8"))
        book["components"][0]["seifert_numerator"] = 2
        code, out, err = self.run(tmp_path, "monodromy", book, "--cable=2,1")
        assert (code, err) == (0, "")
        assert out == (GOLDEN / "expected" / "monodromy_r_m1.json").read_text(encoding="utf-8")

    @pytest.mark.parametrize("cable", ["7,-5", "2,-3", "3,-1", "1,-1", "-2,-1"])
    def test_negative_pair_other_than_r_minus_1_is_refused(self, cable):
        argv = ["--json", "monodromy", "--book", str(GOLDEN / "inputs" / "rational_3m1.json"),
                f"--cable={cable}"]
        assert run_main(argv) == (2, "", (
            "error: the negative cable word of a (3,-1)-book is built for the window pair "
            f"(2,-1) only, got ({cable})\n"))

    def test_pair_reading_differently_per_component_is_refused(self, tmp_path):
        book = {"genus": 1, "components": [_DISK, {"order": 1, "seifert_numerator": 3}]}
        code, out, err = self.run(tmp_path, "monodromy", book, "--cable=2,1")
        assert _names_its_argument(code, out, err, "--cable"), err
        assert "(2, 1), (2, -5)" in err


class TestDeterminism:
    def test_byte_identical_runs(self):
        cmd = [sys.executable, "-m", "cablekit.cli", "--json", "slopes",
               "exceptional", "-7/10"]
        runs = [
            subprocess.run(cmd, capture_output=True, text=True).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1] and runs[0]


# One golden --json case per subcommand, with the layers it may load.
_BOOK = {"classify", "openbook", "words", "slopes"}
_WORDS = _BOOK | {"curves", "monodromy"}
_ALL = _WORDS | {"rewrite", "library"}
COLD_CASES = {
    "slopes_ncf": {"slopes"},
    "torus_knot": {"lens"},
    "classify_positive": _BOOK,
    "cable_page": _BOOK,
    "resolve": _BOOK,
    "surgery": _BOOK,
    "monodromy_2_1": _WORDS,
    "obstruction_13": _WORDS,
    "cobordism_connected": _WORDS,
    "verify_word_sigma22": _ALL,
    "replay_stabilize_21_to_22": _ALL,
}
COLD_RUN = """import sys
from cablekit.cli import main
code = main(sys.argv[1:])
print(sorted(sys.modules))
sys.exit(code)
"""
# Modules whose import alone costs a CLI call milliseconds.
SLOW_IMPORTS = {"dataclasses", "inspect"}
GOLDEN = Path(__file__).parent / "golden"
SRC = str(Path(cablekit.__file__).resolve().parents[1])
TESTS = str(Path(__file__).resolve().parent)


@functools.cache
def _interpreter_modules():
    """The modules a bare `python -O -c pass` has loaded at its end."""
    run = subprocess.run([sys.executable, "-O", "-c", "import sys; print(sorted(sys.modules))"],
                         capture_output=True, text=True, check=True)
    return set(ast.literal_eval(run.stdout))


class TestColdImports:
    """A fresh `python -O` process per subcommand: the output is the golden
    one, no layer outside the subcommand's own set is imported, and neither
    is a slow standard module the bare interpreter has not loaded."""

    @pytest.mark.parametrize("name", sorted(COLD_CASES))
    def test_subcommand_imports_only_its_layers(self, name):
        case = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))[name]
        argv = [str(GOLDEN / a) if a.startswith("inputs/") else a for a in case["argv"]]
        env = {**os.environ, "PYTHONPATH": SRC}
        run = subprocess.run([sys.executable, "-O", "-c", COLD_RUN, "--json", *argv],
                             capture_output=True, env=env)
        out, _, modules = run.stdout.rstrip(b"\n").rpartition(b"\n")
        assert (run.returncode, run.stderr.decode()) == (case["exit"], case["stderr"])
        assert out + b"\n" == (GOLDEN / "expected" / f"{name}.json").read_bytes()
        modules = set(ast.literal_eval(modules.decode()))
        loaded = {m.removeprefix("cablekit.") for m in modules
                  if m.startswith("cablekit")} - {"cablekit", "cli"}
        assert loaded <= COLD_CASES[name], sorted(loaded - COLD_CASES[name])
        assert not (modules - _interpreter_modules()) & SLOW_IMPORTS, sorted(modules & SLOW_IMPORTS)

    def test_cli_import_loads_no_layer(self):
        run = subprocess.run(
            [sys.executable, "-c", "import sys, cablekit.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('cablekit')))"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert run.stdout.strip() == "['cablekit', 'cablekit.cli']"

    def test_the_package_binds_no_layer_name(self):
        # a fresh interpreter: importing a layer binds the layer module on the
        # package, never the names the layer defines
        run = subprocess.run(
            [sys.executable, "-c", "import cablekit\n"
             "try:\n    from cablekit import classify_cable\n"
             "except ImportError:\n    print(sorted(dir(cablekit)))"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert run.stdout, "`from cablekit import classify_cable` imported a layer's name"
        layers = [__import__(f"cablekit.{p.stem}", fromlist=["_"])
                  for p in Path(SRC, "cablekit").glob("*.py") if p.stem != "__init__"]
        defined = {name for layer in layers for name, obj in vars(layer).items()
                   if getattr(obj, "__module__", None) == layer.__name__}
        assert "classify_cable" in defined and "TwistWord" in defined
        assert not set(ast.literal_eval(run.stdout)) & defined


# -- fuzzing the input boundary ------------------------------------------------

# Every subcommand reads malformed books, words and flags
# and must answer with exit 0, or exit 2 and an `error:` line, never exit 1.
# Books keep genus <= 3 and cables p <= 5 so each call stays cheap; the
# -O sample runs the same `run_main` in one `python -O -m cli_runner` process.


def _answers_cleanly(argv, code, out, err):
    if code == 0:
        return True
    named = any(line.startswith("error: ") or ": error: " in line for line in err.splitlines())
    unequal = "verify-word" in argv and not err and "equal" in out
    return code == 2 and (named or unequal)


_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(-2, 2),
                  st.text("c1/-x", max_size=3), st.just([]), st.just({}))


def _or_junk(valid):
    """Mostly valid values, junk one time in five (shrinking toward junk)."""
    return st.integers(0, 4).flatmap(lambda i: valid if i else _JUNK)


_CURVES = ["c1", "c2", "c3", "c4", "c9", "cusp", "bdry_outer", "n1_1", "n1_2", "x1", "d1",
           "partial1"]
_VALID_WORD = st.lists(st.fixed_dictionaries({
    "kind": st.just("dehn"), "curve": st.sampled_from(_CURVES), "sign": st.sampled_from([1, -1]),
}), max_size=4)
_LETTER = st.fixed_dictionaries({
    "kind": _or_junk(st.sampled_from(["dehn", "fractional", "braid_half", "stab", "x"])),
    "curve": _or_junk(st.sampled_from(_CURVES + ["1"])),
}, optional={
    "sign": _or_junk(st.sampled_from([1, -1, 2])),
    "amount": _or_junk(st.sampled_from(["1/2", "-1/3", "2", "x", "1/0", "1/2/3"])),
})
_WORD = st.one_of(_VALID_WORD, _or_junk(st.lists(_or_junk(_LETTER), max_size=4)))
_VALID_BOOK = st.fixed_dictionaries({
    "genus": st.integers(0, 3),
    "components": st.lists(st.fixed_dictionaries({
        "order": st.sampled_from([1, 1, 2, 3, 5]), "seifert_numerator": st.integers(-6, 3)}),
        min_size=1, max_size=2),
}, optional={"monodromy": _VALID_WORD})
_COMPONENT = _or_junk(st.fixed_dictionaries(
    {"order": _or_junk(st.integers(-1, 5)), "seifert_numerator": _or_junk(st.integers(-6, 3))},
    optional={"multiplicity": _or_junk(st.integers(0, 3))},
))
_BOOK = st.one_of(_VALID_BOOK, _or_junk(st.fixed_dictionaries(
    {"genus": _or_junk(st.integers(-1, 3)), "components": _or_junk(st.lists(_COMPONENT,
                                                                          max_size=3))},
    optional={"monodromy": _WORD, "rational_unknot": _or_junk(st.booleans()),
              "boundary_count_of_page": _or_junk(st.integers(0, 3)),
              "metadata": _or_junk(st.dictionaries(st.text("ab", max_size=2), _JUNK,
                                                   max_size=2))},
)))
_SLOPE = st.one_of(st.builds(lambda q, p: f"{q}/{p}", st.integers(-50, 50), st.integers(-50, 50)),
                   st.sampled_from(["0", "-1", "inf", "1/0", "0/0", "x", "-1/3/2", ""]))
_PAIR = st.builds(lambda p, q: f"{p},{q}", st.sampled_from([2, 2, 3, 5, 1, 0, -2]),
                  st.integers(-5, 5))
_CABLE = st.integers(0, 5).flatmap(lambda i: (
    st.sampled_from(["2", "2,1,3", "a,b", "", "2,1;"]) if i == 0
    else st.lists(_PAIR, min_size=2, max_size=3).map(";".join) if i == 1 else _PAIR))
_INT = st.one_of(st.integers(-3, 5).map(str), st.sampled_from(["x", "1.5", ""]))
_SUBCOMMAND = {
    "slopes": st.tuples(st.sampled_from(["exceptional", "path", "ncf", "x"]),
                        st.lists(_SLOPE, min_size=1, max_size=2)).map(
        lambda t: ["slopes", t[0], *t[1]]),
    "torus-knot": st.lists(_INT, min_size=4, max_size=4).map(
        lambda v: ["torus-knot", *(f"--{n}={x}" for n, x in zip("rskl", v))]),
    "classify": _CABLE.map(lambda c: ["classify", "--book", "BOOK", f"--cable={c}"]),
    "cable-page": _CABLE.map(lambda c: ["cable-page", "--book", "BOOK", f"--cable={c}"]),
    "resolve": st.one_of(st.just(""), _CABLE).map(lambda l: ["resolve", "--book", "BOOK",
                                                            f"--l={l}"]),
    "surgery": st.tuples(_INT, _SLOPE).map(lambda t: [
        "surgery", "--book", "BOOK", f"--component={t[0]}", f"--coefficient={t[1]}"]),
    "monodromy": _CABLE.map(lambda c: ["monodromy", "--book", "BOOK", f"--cable={c}"]),
    "obstruction": _INT.map(lambda p: ["obstruction", f"--p={p}"]),
    "verify-word": st.sampled_from(["sigma22_g1", "resolved_neg_cable_g1", "x"]).map(
        lambda s: ["verify-word", "--system", s, "WORD1", "WORD2"]),
    "replay-script": st.sampled_from(["stabilize_21_to_22", "garside_square_boundary",
                                      "negative_cable_positive_refactor",
                                      "genlantern_from_two_lanterns", "x"]).map(
        lambda s: ["replay-script", s]),
    "compose-cobordism": st.just(["compose-cobordism", "--page", "BOOK", "WORD1", "WORD2"]),
}


def _write_inputs(root, argv, book, word1, word2):
    """Write the drawn files under root and return the argv that names them.
    A file of None is left unparsable."""
    files = {"BOOK": book, "WORD1": word1, "WORD2": word2}
    for key, value in files.items():
        (root / key).write_text("{" if value is None else json.dumps(value))
    return [str(root / a) if a in files else a for a in argv]


class TestFuzzBoundary:
    @settings(max_examples=150, deadline=None)
    @given(command=st.sampled_from(sorted(_SUBCOMMAND)).flatmap(_SUBCOMMAND.get),
           json_flag=st.booleans(), book=_BOOK, word1=_WORD, word2=_WORD)
    def test_exit_0_or_2(self, tmp_path_factory, command, json_flag, book, word1, word2):
        root = tmp_path_factory.mktemp("fuzz")
        argv = _write_inputs(root, command, book, word1, word2)
        argv = ["--json", *argv] if json_flag else argv
        code, out, err = run_main(argv)
        assert _answers_cleanly(argv, code, out, err), (argv, code, err)

    def test_sample_under_optimize(self, tmp_path):
        # asserts vanish under `python -O`; the checks that guard the
        # boundary must not
        books = [None, [1], {"genus": "1", "components": []},
                 {"genus": 1, "components": [{"order": 0, "seifert_numerator": 1}]},
                 {"genus": 1, "components": [{"order": 2, "seifert_numerator": 4}]},
                 {"genus": 3, "components": [_DISK], "monodromy": [{"kind": "x", "curve": "c1"}]}]
        words = [None, 7, [{"kind": "dehn", "curve": "c1", "sign": True}],
                 [{"kind": "fractional", "curve": "1", "amount": "1/0"}]]
        cases, refusals = [], {}
        for i, (name, argv) in enumerate([
            ("slopes", ["slopes", "exceptional", "1/3"]),
            ("torus-knot", ["torus-knot", "--r=0", "--s=0", "--k=0", "--l=0"]),
            *((cmd, [cmd, "--book", "BOOK", "--cable=5,-3"]) for cmd in
              ("classify", "cable-page", "monodromy")),
            ("resolve", ["resolve", "--book", "BOOK", "--l=1,x"]),
            ("surgery", ["surgery", "--book", "BOOK", "--coefficient=0/0"]),
            ("obstruction", ["obstruction", "--p=-1"]),
            ("verify-word", ["verify-word", "--system", "sigma22_g1", "WORD1", "WORD2"]),
            ("replay-script", ["replay-script", "stabilize_21_to_22"]),
            ("compose-cobordism", ["compose-cobordism", "--page", "BOOK", "WORD1", "WORD2"]),
        ]):
            for j, book in enumerate(books):
                root = tmp_path / f"{name}_{j}"
                root.mkdir()
                if book is None and "BOOK" in argv:  # the book, a `{`, is read first
                    refusals[len(cases)] = f"error: {root / 'BOOK'}: Expecting property name"
                cases.append(_write_inputs(root, ["--json", *argv], book, words[j % len(words)],
                                           words[(i + j) % len(words)]))
        # refusals that must hold under -O too: a letter that is no Dehn
        # twist under every cable builder, and a file nested past the parser
        fractional = {"genus": 1, "components": [_DISK], "monodromy": [
            {"kind": "fractional", "curve": "nowhere", "amount": "1/3"}]}
        for cable in ("2,1", "2,2", "3,2"):
            root = tmp_path / f"fractional_{cable}"
            root.mkdir()
            argv = _write_inputs(root, ["monodromy", "--book", "BOOK", f"--cable={cable}"],
                                 fractional, None, None)
            refusals[len(cases)] = "only Dehn twists lift to a nodule"
            cases.append(argv)
        (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
        (tmp_path / "page.json").write_text(json.dumps({"genus": 1, "components": [_DISK]}))
        deep, page = str(tmp_path / "deep.json"), str(tmp_path / "page.json")
        for argv in (["classify", "--book", deep, "--cable=2,1"],
                     ["verify-word", "--system", "sigma22_g1", deep, deep],
                     ["compose-cobordism", "--page", page, deep, deep]):
            refusals[len(cases)] = "JSON nested too deeply"
            cases.append(argv)
        proc = subprocess.run([sys.executable, "-O", "-m", "cli_runner"], input=json.dumps(cases),
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join([SRC, TESTS])})
        assert proc.returncode == 0, proc.stderr
        results = json.loads(proc.stdout)
        bad = [(argv, code, err) for argv, (code, out, err) in zip(cases, results)
               if not _answers_cleanly(argv, code, out, err)]
        assert len(results) == len(cases) == 72 and not bad, bad
        for k, message in refusals.items():
            assert results[k][0] == 2 and message in results[k][2], (cases[k], results[k])


class TestRationalUnknot:
    """A binding is a rational unknot exactly when its page is a disk: the
    book commands read that from the page and print it, and a book file
    that states it otherwise is refused."""

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_disk_cable_along_q_minus_one_is_a_rational_unknot_cable(self, p):
        code, out, err = run_main(["--json", "classify", "--book",
                                   str(GOLDEN / "inputs" / "disk.json"), f"--cable={p},-1"])
        assert (code, err) == (0, "") and json.loads(out)["kind"] == "RationalUnknotCable"

    def test_surgered_disk_book_is_a_rational_unknot(self, tmp_path):
        code, out, err = run_main(["--json", "surgery", "--book",
                                   str(GOLDEN / "inputs" / "disk.json"), "--coefficient=-3"])
        book = json.loads(out)["book"]
        assert (code, err) == (0, "") and book["rational_unknot"] is True
        path = tmp_path / "surgered.json"
        path.write_text(json.dumps(book))
        code, out, err = run_main(["--json", "classify", "--book", str(path), "--cable=2,-1"])
        assert (code, err) == (0, "") and json.loads(out)["kind"] == "RationalUnknotCable"

    @pytest.mark.parametrize("book", [
        {"genus": 0, "components": [_DISK], "rational_unknot": False},
        {"genus": 1, "components": [_DISK], "rational_unknot": True},
        {"genus": 0, "components": [{"order": 3, "seifert_numerator": 0}],
         "rational_unknot": True},
    ], ids=["disk_false", "genus1_true", "three_circles_true"])
    def test_flag_other_than_the_page_is_exit_2(self, tmp_path, book):
        path = tmp_path / "book.json"
        path.write_text(json.dumps(book))
        code, out, err = run_main(["--json", "classify", "--book", str(path), "--cable=2,-1"])
        assert (code, out) == (2, "") and err.startswith("error: book field 'rational_unknot'")

    FLAGS = {"cable-page": _PAIR.map("--cable={}".format),
             "monodromy": _PAIR.map("--cable={}".format),
             "resolve": _INT.map("--l={}".format),
             "surgery": _SLOPE.map("--coefficient={}".format)}

    @settings(max_examples=150, deadline=None)
    @given(book=_VALID_BOOK, data=st.data())
    def test_printed_books_state_the_derived_flag(self, tmp_path_factory, book, data):
        command = data.draw(st.sampled_from(sorted(self.FLAGS)))
        path = tmp_path_factory.mktemp("printed") / "book.json"
        path.write_text(json.dumps(book))
        code, out, _ = run_main(["--json", command, "--book", str(path),
                                 data.draw(self.FLAGS[command])])
        if code:
            return
        payload = json.loads(out)
        printed = payload.get("book") or payload.get("page") or payload
        assert printed["rational_unknot"] is (
            printed["genus"] == 0 and printed["boundary_count_of_page"] == 1), (command, out)
