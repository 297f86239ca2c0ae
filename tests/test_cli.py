import json
from pathlib import Path

import pytest

from hypercourant import runfile
from hypercourant.cli import main
from hypercourant.parse import MAX_EXPONENT
from hypercourant.runfile import MAX_DEGREE, MAX_DIMENSION, MAX_TRIALS
from hypercourant.scalar import MAX_TOTAL_DEGREE, scalar_text
from hypercourant.structures import structure_file


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyAxioms:
    def test_passing_run_exits_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-axioms", "--dim", "2", "--trials", "3", "--seed", "7",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "pass"
        assert doc["suites"][0]["suite"] == "axioms"
        assert len(doc["suites"][0]["checks"]) == 21

    def test_corrupted_bracket_exits_one_with_witness(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-axioms", "--dim", "2", "--trials", "2", "--seed", "1",
            "--corrupt-bracket", "--format", "json",
        )
        assert code == 1
        doc = json.loads(out)
        failing = [
            c
            for s in doc["suites"]
            for c in s["checks"]
            if not c["pass"] and c["check-id"] == "axiom-4-symmetric-part"
        ]
        assert failing
        witness = failing[0]["witness"]
        assert witness["expression"] and witness["point"] and witness["value"] != "0"

    def test_corrupted_bracket_matches_recorded_report(self, capsys):
        golden = json.loads(Path(__file__).with_name("mutant_golden.json").read_text())
        golden = golden["verify-axioms"]
        code, out, _ = run_cli(capsys, *golden["argv"])
        assert (code, out) == (golden["exit"], golden["stdout"])

    def test_text_format_prints_failures(self, capsys):
        # n = 1 would hide the mutation (every 2-form on a line vanishes)
        code, out, _ = run_cli(
            capsys, "verify-axioms", "--dim", "2", "--trials", "1", "--seed", "2",
            "--corrupt-bracket",
        )
        assert code == 1
        assert "FAIL" in out and "residual" in out

    def test_corruption_invisible_on_a_line(self, capsys):
        code, _, _ = run_cli(
            capsys, "verify-axioms", "--dim", "1", "--trials", "2", "--seed", "2",
            "--corrupt-bracket",
        )
        assert code == 0

    def test_deterministic_output(self, capsys):
        args = ("verify-axioms", "--dim", "2", "--trials", "2", "--seed", "3",
                "--format", "json")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_bad_dimension_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "verify-axioms", "--dim", "0")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--trials", "0"),
            ("--trials", "-3"),
            ("--degree", "-1"),
            ("--degree", str(MAX_DEGREE + 1)),
            ("--degree", "40"),
        ],
    )
    def test_out_of_bounds_argument_exits_two(self, capsys, flag, value):
        code, out, err = run_cli(
            capsys, "verify-axioms", "--dim", "3", "--trials", "1", flag, value
        )
        assert code == 2
        assert out == ""
        assert err == f"error: need --trials >= 1 and --degree in 0..{MAX_DEGREE}\n"

    @pytest.mark.parametrize("dim", ["0", str(MAX_DIMENSION + 1), "30"])
    def test_dimension_out_of_bounds_exits_two(self, capsys, dim):
        code, out, err = run_cli(capsys, "verify-axioms", "--dim", dim, "--trials", "1")
        assert (code, out) == (2, "")
        assert err == f"error: need --dim in 1..{MAX_DIMENSION}\n"

    def test_bounds_are_inclusive(self, capsys):
        code, _, _ = run_cli(
            capsys, "verify-axioms", "--dim", "1", "--trials", "1", "--degree", "0"
        )
        assert code == 0
        code, _, _ = run_cli(
            capsys, "verify-axioms", "--dim", "1", "--trials", "1", "--degree", str(MAX_DEGREE)
        )
        assert code == 0
        code, _, _ = run_cli(
            capsys, "verify-axioms", "--dim", "1", "--trials", str(MAX_TRIALS), "--degree", "0"
        )
        assert code == 0

    @pytest.mark.parametrize("trials", [str(MAX_TRIALS + 1), "10000000"])
    def test_trials_above_bound_exits_two(self, capsys, trials):
        code, out, err = run_cli(capsys, "verify-axioms", "--dim", "1", "--trials", trials)
        assert (code, out) == (2, "")
        assert err == f"error: need --trials at most {MAX_TRIALS}\n"

    @pytest.mark.parametrize("seed", ["-1", "-3"])
    def test_negative_seed_exits_two(self, capsys, seed):
        # a document refuses a negative seed too
        args = ("verify-axioms", "--dim", "1", "--trials", "1", "--seed")
        code, out, err = run_cli(capsys, *args, seed)
        assert (code, out) == (2, "")
        assert err == "error: need --seed >= 0\n"
        assert run_cli(capsys, *args, "0")[0] == 0


def example_doc(tmp_path, checks=None, **options) -> str:
    """The nonintegrable example with some fields overridden, as a file."""
    doc = structure_file("nonintegrable")
    if checks is not None:
        doc["checks"] = checks
    doc["options"].update(options)
    path = tmp_path / "example.json"
    path.write_text(json.dumps(doc))
    return str(path)


def entry_doc(tmp_path, entry: str) -> str:
    """A 1-dimensional document with `entry` at I.A[0][0], as a file."""
    doc = {
        "dimension": 1,
        "structure": {
            "I": {"A": [[entry]], "B": [["1"]], "C": [["-1"]], "D": [["0"]]},
            "J": {"A": [["0"]], "B": [["1"]], "C": [["-1"]], "D": [["0"]]},
        },
        "checks": ["certification"],
    }
    path = tmp_path / "entry.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def small_file(tmp_path_factory):
    from hypercourant.structures import QUAT_I, QUAT_J

    def strings(rows):
        return [[str(v) for v in row] for row in rows]

    doc = {
        "dimension": 4,
        "structure": {
            "I": {"lift": "diagonal", "j": strings(QUAT_I)},
            "J": {"lift": "diagonal", "j": strings(QUAT_J)},
        },
        "checks": ["certification", "identities"],
        "options": {"trials": 2, "seed": 5, "degree": 1},
    }
    path = tmp_path_factory.mktemp("docs") / "small.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestCheck:

    def test_check_passes(self, capsys, small_file):
        code, out, _ = run_cli(capsys, "check", small_file, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "pass"
        assert [s["suite"] for s in doc["suites"]] == ["certification", "identities"]
        assert doc["input-digest"].startswith("sha256:")

    def test_report_written_to_file(self, capsys, small_file, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "check", small_file, "--format", "json", "--report", str(out_path)
        )
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["verdict"] == "pass"

    def test_byte_identical_reports(self, capsys, small_file):
        _, first, _ = run_cli(capsys, "check", small_file, "--format", "json")
        _, second, _ = run_cli(capsys, "check", small_file, "--format", "json")
        assert first == second

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "check", "/no/such/file.json")
        assert code == 2
        assert "no such file" in err

    def test_malformed_json_exits_two(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{]")
        code, _, err = run_cli(capsys, "check", str(path))
        assert code == 2

    def test_deeply_nested_entry_exits_two(self, capsys, tmp_path):
        path = entry_doc(tmp_path, "(" * 3000 + "1" + ")" * 3000)
        code, out, err = run_cli(capsys, "check", path)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "nested" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "entry",
        ["\u0663", "\uff11\uff12", "x\u0661", "\u00a0x1", "x1 +\u2003x1", "x1\u3000"],
    )
    def test_non_ascii_digit_or_space_exits_two(self, capsys, tmp_path, entry):
        # Unicode digits and spaces are not in the grammar: a ScalarSyntaxError
        code, out, err = run_cli(capsys, "check", entry_doc(tmp_path, entry))
        assert code == 2
        assert out == ""
        assert err.startswith("error: unexpected character") and "(at position" in err
        assert "Traceback" not in err

    def test_deeply_nested_json_exits_two(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"dimension": ' + "[" * 100000 + "]" * 100000 + "}")
        code, _, err = run_cli(capsys, "check", str(path))
        assert code == 2
        assert err.startswith("error:") and "nested too deeply" in err

    def test_zero_trials_exits_two(self, capsys, tmp_path):
        # with no sampled trials the theorem suite would see no connection
        # failure and report an engine bug; the schema refuses the document
        code, out, err = run_cli(
            capsys, "check", example_doc(tmp_path, checks=["theorem"], trials=0)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "'trials' must be at least 1" in err
        assert "Traceback" not in err

    def test_trials_bound_is_inclusive(self, capsys, tmp_path):
        doc = example_doc(tmp_path, checks=["certification"], trials=MAX_TRIALS)
        code, _, _ = run_cli(capsys, "check", doc)
        assert code == 0
        code, out, err = run_cli(
            capsys, "check", example_doc(tmp_path, checks=["certification"], trials=MAX_TRIALS + 1)
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and f"at most {MAX_TRIALS}" in err

    def test_sections_key_exits_two(self, capsys, tmp_path):
        # named sections are not part of the schema
        doc = structure_file("nonintegrable")
        doc["sections"] = {"s": ["x1"] + ["0"] * 7}
        path = tmp_path / "sections.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "check", str(path))
        assert (code, out) == (2, "")
        assert err == "error: unknown top-level keys ['sections']\n"

    @pytest.mark.parametrize(
        "name, extra, unknown",
        [
            ("flat-quaternionic", {"I": {"typo": [[1]]}, "J": {"A": "ignored"}}, "I: unknown keys ['typo']"),
            (
                "nonintegrable",
                {"I": {"lift": "diagonal", "j": structure_file("flat-quaternionic")["structure"]["I"]["j"]}},
                "I: unknown keys ['A', 'B', 'C', 'D']",
            ),
        ],
    )
    def test_unknown_member_key_exits_two(self, capsys, tmp_path, name, extra, unknown):
        # a key outside the member's form is refused, not ignored
        doc = structure_file(name)
        for member, keys in extra.items():
            doc["structure"][member].update(keys)
        path = tmp_path / "member.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "check", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {unknown}")

    def test_unprintable_coefficient_exits_two(self, capsys, tmp_path):
        # a 4,000-digit entry parses, but J^2 + 1 has 8,000 digits, past the
        # limit of the interpreter's int() that the parser also enforces
        block = {"A": [["9" * 4000]], "B": [["0"]], "C": [["0"]], "D": [["0"]]}
        doc = {"dimension": 1, "structure": {"I": block, "J": block}, "checks": ["certification"]}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "check", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "digits" in err

    @pytest.mark.parametrize("option, value", [("trials", True), ("seed", False), ("degree", True)])
    def test_boolean_option_exits_two(self, capsys, tmp_path, option, value):
        code, out, err = run_cli(
            capsys, "check", example_doc(tmp_path, checks=["theorem"], **{option: value})
        )
        assert code == 2
        assert out == ""
        assert err == f"error: option {option!r} must be a nonnegative integer\n"

    @pytest.mark.parametrize("options", [None, [], 0, False, ""])
    def test_non_object_options_exits_two(self, capsys, tmp_path, options):
        # falsy values too: none of them may stand for the default options
        doc = structure_file("nonintegrable")
        doc["options"] = options
        path = tmp_path / "options.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "check", str(path))
        assert (code, out) == (2, "")
        assert err == "error: 'options' must be an object\n"

    def test_empty_checks_exits_two(self, capsys, tmp_path):
        # a report with no suite would pass without checking anything
        code, out, err = run_cli(capsys, "check", example_doc(tmp_path, checks=[]))
        assert (code, out) == (2, "")
        assert err == "error: 'checks' must name at least one suite\n"

    def test_boolean_dimension_exits_two(self, capsys, tmp_path):
        doc = structure_file("nonintegrable")
        doc["dimension"] = True
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "check", str(path))
        assert code == 2
        assert err == "error: 'dimension' must be an integer >= 1\n"

    def test_dimension_above_bound_exits_two(self, capsys, tmp_path):
        doc = structure_file("nonintegrable")
        doc["dimension"] = MAX_DIMENSION + 1
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "check", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: 'dimension' must be at most {MAX_DIMENSION}\n"

    def test_huge_integer_literal_exits_two(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "check", entry_doc(tmp_path, "1" * 5000))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "5000 digits" in err

    def test_undecodable_text_exits_two(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"dimension": "\u00e9"}'.encode("latin-1"))
        code, out, err = run_cli(capsys, "check", str(path))
        assert (code, out) == (2, "")
        assert err == "error: the file is not valid UTF-8\n"
        # argv bytes that do not decode reach the program as lone surrogates
        code, out, err = run_cli(capsys, "check", '{"dimension": "\udce9"}')
        assert (code, out) == (2, "")
        assert err == "error: the document is not valid UTF-8\n"

    def test_huge_json_number_exits_two(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text('{"dimension": ' + "1" * 5000 + "}")
        code, out, err = run_cli(capsys, "check", str(path))
        assert (code, out) == (2, "")
        assert err == "error: not valid JSON: a number has too many digits\n"

    def test_degree_above_bound_exits_two(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "check", example_doc(tmp_path, checks=["axioms"], degree=MAX_DEGREE + 1)
        )
        assert code == 2
        assert err.startswith("error:") and f"at most {MAX_DEGREE}" in err

    def test_span_degree_option_exits_two(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "check", example_doc(tmp_path, checks=["theorem"], span_degree=1)
        )
        assert code == 2
        assert err.startswith("error:") and "unknown option 'span_degree'" in err

    def test_large_exponent_entry_exits_two(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "check", entry_doc(tmp_path, "(1+x1)^200"))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and f"power larger than {MAX_EXPONENT}" in err

    def test_total_degree_bound(self, capsys, tmp_path):
        # each factor is within the exponent bound; the product's total
        # degree, 32 per factor, crosses MAX_TOTAL_DEGREE at 2048 factors
        # (test_parse checks that 2047 factors parse)
        entry = "*".join([f"x1^{MAX_EXPONENT}"] * 2048)
        code, out, err = run_cli(capsys, "check", entry_doc(tmp_path, entry))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and f"degree above {MAX_TOTAL_DEGREE}" in err

    @pytest.mark.parametrize("command", ["check", "verify-axioms"])
    def test_parallel_flag_is_gone(self, capsys, tmp_path, command):
        first = example_doc(tmp_path) if command == "check" else "--dim=2"
        with pytest.raises(SystemExit) as exc:
            main([command, first, "--parallel"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --parallel" in capsys.readouterr().err

    def test_denominators_in_two_variables(self, capsys, tmp_path, conjugated_x2x3, time_budget):
        # every suite on the flat triple conjugated by diag(1 + x2 x3, 1, 1,
        # 1), whose gcds once ran for minutes
        doc = structure_file("nonintegrable")
        doc["structure"] = {
            name: {
                block: [[scalar_text(f) for f in row] for row in rows]
                for block, rows in endo.blocks().items()
            }
            for name, endo in (("I", conjugated_x2x3.i), ("J", conjugated_x2x3.j))
        }
        doc["options"] = {"trials": 2, "degree": 1, "seed": 0}
        path = tmp_path / "conjugated.json"
        path.write_text(json.dumps(doc))
        with time_budget(30):
            code, out, _ = run_cli(capsys, "check", str(path), "--format", "json")
        assert code == 0
        theorem = json.loads(out)["suites"][-1]["theorem"]
        assert (theorem["verdict"], theorem["consistency"]) == ("not-hypercomplex", "ok")
        assert theorem["parallel"] == {"I": False, "J": True, "K": False}

    def test_inconsistent_theorem_exits_one(self, capsys, tmp_path, monkeypatch):
        # the theorem is forced inconsistent through the pass that run calls;
        # the run reports it as a failed suite, with no error on the way out
        real = runfile.connection_pass

        def forced(*args):
            results, seconds = real(*args)
            results["theorem"] = results["theorem"]._replace(consistency="violated")
            return results, seconds

        monkeypatch.setattr(runfile, "connection_pass", forced)
        path = example_doc(tmp_path, checks=["identities", "theorem"], trials=1, degree=1)
        code, out, err = run_cli(capsys, "check", path, "--format", "json")
        assert (code, err) == (1, "")
        identities, theorem = json.loads(out)["suites"]
        assert identities["status"] == "pass"
        assert theorem["status"] == "fail"
        assert theorem["theorem"]["consistency"] == "violated"
        assert "engine bug" in theorem["reason"]

    def test_mathematical_failure_exits_one(self, capsys, tmp_path):
        doc = {
            "dimension": 1,
            "structure": {
                "I": {
                    "A": [["2"]], "B": [["0"]], "C": [["0"]], "D": [["2"]],
                },
                "J": {
                    "A": [["0"]], "B": [["1"]], "C": [["-1"]], "D": [["0"]],
                },
            },
            "checks": ["certification"],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "check", str(path), "--format", "json")
        assert code == 1
        assert json.loads(out)["verdict"] == "fail"


class TestExamples:
    @pytest.mark.parametrize(
        "name", ["flat-quaternionic", "holomorphic-symplectic", "nonintegrable"]
    )
    def test_examples_emit_parseable_documents(self, capsys, name, tmp_path):
        path = tmp_path / f"{name}.json"
        code, _, _ = run_cli(capsys, "examples", name, "--emit", str(path))
        assert code == 0
        from hypercourant.runfile import parse_structure

        sf = parse_structure(str(path))
        assert sf.triple.certified

    def test_examples_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "examples", "flat-quaternionic")
        assert code == 0
        doc = json.loads(out)
        assert doc["dimension"] == 4

    def test_unknown_example_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["examples", "moebius"])
        assert exc.value.code == 2
