import contextlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypercourant.nijenhuis
from hypercourant.endo import GEndo, HKTriple
from hypercourant.errors import (
    DimensionMismatch,
    EngineError,
    SchemaError,
    ScalarSyntaxError,
    UnknownVariable,
)
from hypercourant.parse import parse_scalar
from hypercourant.report import CheckReport, witness_for
from hypercourant.runfile import (
    MAX_DEGREE,
    SUITES,
    RunReport,
    SuiteReport,
    emit,
    exit_code,
    parse_structure,
    parse_structure_text,
    run,
)
from hypercourant.structures import EXAMPLE_NAMES, structure_file


def _matrix_strings(rows):
    return [[str(v) for v in row] for row in rows]


def small_doc(**overrides):
    # the flat quaternionic lifts, trimmed to a fast trial count; J is given
    # in block form to exercise that path
    from hypercourant.structures import QUAT_I, QUAT_J

    j_blocks = {
        "A": _matrix_strings([[-v for v in row] for row in QUAT_J]),
        "B": _matrix_strings([[0] * 4] * 4),
        "C": _matrix_strings([[0] * 4] * 4),
        "D": _matrix_strings(list(map(list, zip(*QUAT_J)))),
    }
    doc = {
        "dimension": 4,
        "structure": {
            "I": {"lift": "diagonal", "j": _matrix_strings(QUAT_I)},
            "J": j_blocks,
        },
        "checks": ["certification"],
        "options": {"trials": 2, "seed": 1, "degree": 1},
    }
    doc.update(overrides)
    return doc


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-10, 10)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["0", "1", "-1", "x1", "x9", "1/0", "(", "diagonal", "theorem"])
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=10,
)


@st.composite
def mutated_documents(draw):
    """A built-in example document with one node replaced by random JSON;
    the node is a top-level value, or one or more levels below it."""
    doc = structure_file(draw(st.sampled_from(EXAMPLE_NAMES)))
    parent, key = None, None
    node = doc
    while isinstance(node, (dict, list)) and node and (parent is None or draw(st.booleans())):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, draw(st.sampled_from(keys))
        node = parent[key]
    parent[key] = draw(JSON_VALUES)
    return json.dumps(doc)


@given(text=st.one_of(mutated_documents(), st.text(max_size=40)))
@settings(max_examples=300)
def test_fuzzed_documents_parse_or_raise_engine_error(text):
    try:
        parse_structure_text(text)
    except EngineError:
        pass


class TestParsing:
    def test_minimal_document(self):
        sf = parse_structure_text(json.dumps(small_doc()))
        assert sf.triple.n == 4
        assert sf.options["trials"] == 2 and sf.options["seed"] == 1 and sf.options["degree"] == 1
        assert sf.digest.startswith("sha256:")

    def test_k_defaults_to_i_compose_j(self):
        sf = parse_structure_text(json.dumps(small_doc()))
        assert sf.triple.k == sf.triple.i @ sf.triple.j

    def test_wrong_block_shape_is_dimension_mismatch(self):
        doc = small_doc()
        doc["structure"]["J"]["B"] = [["0"], ["0"]]
        with pytest.raises(DimensionMismatch):
            parse_structure_text(json.dumps(doc))

    def test_checks_selection_validated(self):
        with pytest.raises(SchemaError):
            parse_structure_text(json.dumps(small_doc(checks=["axioms", "nope"])))

    def test_checks_must_not_repeat(self):
        with pytest.raises(SchemaError, match="^'checks' must not repeat suites$"):
            parse_structure_text(json.dumps(small_doc(checks=["axioms", "axioms"])))

    def test_bad_json(self):
        with pytest.raises(SchemaError):
            parse_structure_text("{not json")

    def test_float_entries_rejected_by_grammar(self):
        doc = small_doc()
        doc["structure"]["I"]["j"][0][0] = "0.5"
        with pytest.raises(ScalarSyntaxError):
            parse_structure_text(json.dumps(doc))

    def test_unknown_variable_in_entry(self):
        doc = small_doc()
        doc["structure"]["I"]["j"][0][0] = "x7"
        with pytest.raises(UnknownVariable):
            parse_structure_text(json.dumps(doc))

    def test_coordinates_must_be_canonical(self):
        with pytest.raises(SchemaError):
            parse_structure_text(json.dumps(small_doc(coordinates=["u", "v"])))

    def test_unknown_option_rejected(self):
        with pytest.raises(SchemaError):
            parse_structure_text(json.dumps(small_doc(options={"tolerance": 3})))

    def test_degree_is_bounded(self):
        sf = parse_structure_text(json.dumps(small_doc(options={"degree": MAX_DEGREE})))
        assert sf.options["degree"] == MAX_DEGREE
        with pytest.raises(SchemaError, match=f"'degree' must be at most {MAX_DEGREE}"):
            parse_structure_text(json.dumps(small_doc(options={"degree": MAX_DEGREE + 1})))

    def test_missing_file_path(self):
        with pytest.raises(SchemaError):
            parse_structure("/definitely/not/here.json")


class TestRun:
    def test_selected_suites_only(self):
        sf = parse_structure_text(json.dumps(small_doc(checks=["axioms"])))
        report = run(sf)
        assert [s.suite for s in report.suites] == ["axioms"]
        assert report.verdict == "pass"
        assert exit_code(report) == 0

    def test_each_selected_suite_appears_once(self):
        doc = small_doc(checks=list(SUITES))
        doc["options"] = {"trials": 2, "seed": 3, "degree": 1}
        sf = parse_structure_text(json.dumps(doc))
        report = run(sf)
        assert [s.suite for s in report.suites] == list(SUITES)
        assert {s.status for s in report.suites} == {"pass"}

    def test_certification_failure_downgrades_later_suites(self, monkeypatch):
        # 2 * identity on a line: orthogonality and the quaternionic
        # relations both fail, so everything downstream must be skipped
        doc = {
            "dimension": 1,
            "structure": {
                "I": {"A": [["2"]], "B": [["0"]], "C": [["0"]], "D": [["2"]]},
                "J": {"A": [["0"]], "B": [["1"]], "C": [["-1"]], "D": [["0"]]},
            },
            "checks": list(SUITES),
            "options": {"trials": 2, "seed": 1, "degree": 1},
        }
        sf = parse_structure_text(json.dumps(doc))
        # an uncertified triple draws no connection-level inputs
        monkeypatch.setattr(hypercourant.nijenhuis, "_inputs", None)
        report = run(sf)
        by_name = {s.suite: s for s in report.suites}
        assert by_name["axioms"].status == "pass"
        assert by_name["certification"].status == "fail"
        for name in ("connection-laws", "identities", "theorem"):
            assert by_name[name].status == "skipped"
            assert "certification" in by_name[name].reason
        assert report.verdict == "fail"
        assert exit_code(report) == 1

    def test_flat_example_computes_each_bracket_of_an_input_once(self, monkeypatch):
        # the laws, the identities and the theorem of an input share one
        # scope (386 brackets when the laws ran outside it)
        calls = []
        dorfman = hypercourant.nijenhuis.dorfman

        def counted(s, t):
            calls.append((s, t))
            return dorfman(s, t)

        monkeypatch.setattr(hypercourant.nijenhuis, "dorfman", counted)
        doc = structure_file("flat-quaternionic")
        doc["options"].update(trials=2, seed=101)
        run(parse_structure_text(json.dumps(doc)))
        assert len(calls) == 354

    def test_builtin_symplectic_file_certifies_through_run(self):
        doc = structure_file("holomorphic-symplectic")
        doc["checks"] = ["certification"]
        sf = parse_structure_text(json.dumps(doc))
        report = run(sf)
        assert report.verdict == "pass"
        assert exit_code(report) == 0

    def test_inconsistency_surfaces_as_failed_theorem_suite(self):
        # an identity triple with forged passing reports: every concomitant
        # vanishes but the torsion formula fails, which contradicts the
        # proof; the suite fails and the other suites keep their results
        ident = GEndo.identity(2)
        ok = CheckReport("forged")
        fake = HKTriple(ident, ident, ident, (ok, ok, ok), ok)
        sf = parse_structure_text(json.dumps(small_doc(checks=["theorem", "identities"])))
        report = run(sf._replace(triple=fake))
        theorem, identities = report.suites
        assert theorem.status == "fail"
        assert theorem.theorem.consistency == "violated"
        assert "engine bug" in theorem.reason
        assert len(identities.checks) == 8 * sf.options["trials"]
        assert report.verdict == "fail"
        assert exit_code(report) == 1

    def test_a_suite_with_one_failed_check_fails(self):
        failed = CheckReport("y", witness_for(parse_scalar("x1", 1)))
        suite = SuiteReport("s", (CheckReport("x"), failed))
        assert (suite.status, suite.reason) == ("fail", "")
        assert RunReport("-", {}, [suite]).verdict == "fail"

    def test_a_skipped_suite_gives_its_skip_reason(self):
        suite = SuiteReport("s", skip_reason="structure failed certification")
        assert (suite.status, suite.reason) == ("skipped", "structure failed certification")
        assert RunReport("-", {}, [suite]).verdict == "fail"

    def test_reports_share_no_container(self):
        # a default is fresh or immutable, so nothing done to one report's
        # checks or timings shows in another's
        a, b = SuiteReport("s"), SuiteReport("s")
        with contextlib.suppress(AttributeError):
            a.checks.append(CheckReport("x"))
        assert not b.checks
        r, q = (RunReport("-", {}, []) for _ in range(2))
        with contextlib.suppress(TypeError):
            r.timings["x"] = 1.0
        assert not q.timings


class TestEmit:
    def test_json_is_byte_identical_across_runs(self):
        text = json.dumps(small_doc(checks=["certification", "axioms"]))
        a = emit(run(parse_structure_text(text)), "json")
        b = emit(run(parse_structure_text(text)), "json")
        assert a == b

    def test_a_run_keeps_no_gcd_for_the_next(self, gcd_calls):
        # gcds are memoised per sharing scope only, so a second identical
        # run computes every gcd the first one did
        doc = structure_file("nonintegrable")
        doc["options"]["trials"] = 1
        text = json.dumps(doc)

        def counted_run():
            gcd_calls.clear()
            out = emit(run(parse_structure_text(text)), "json")
            return out, len(gcd_calls)

        (first, n_first), (second, n_second) = counted_run(), counted_run()
        assert n_first > 0 and n_first == n_second
        assert first == second

    @pytest.mark.parametrize("name", EXAMPLE_NAMES)
    def test_json_matches_recorded_report(self, name):
        # the whole report of each built-in example at trials 2, seed 101,
        # recorded before the sum-of-products kernel and the shared brackets;
        # flat-quaternionic re-recorded without its named sections (its 30
        # untrialled checks dropped, every other byte as before)
        golden = json.loads(Path(__file__).with_name("check_golden.json").read_text())
        doc = structure_file(name)
        doc["options"].update(trials=2, seed=101)
        report = run(parse_structure_text(json.dumps(doc)))
        assert emit(report, "json").decode("utf-8") == golden[name]

    def test_json_has_no_timings_by_default(self):
        sf = parse_structure_text(json.dumps(small_doc()))
        doc = json.loads(emit(run(sf), "json"))
        assert "timings" not in doc
        assert doc["verdict"] == "pass"
        assert doc["version"]

    def test_timings_opt_in(self):
        sf = parse_structure_text(json.dumps(small_doc()))
        doc = json.loads(emit(run(sf), "json", include_timings=True))
        assert "timings" in doc

    def test_text_format(self):
        sf = parse_structure_text(json.dumps(small_doc()))
        out = emit(run(sf), "text").decode()
        assert "suite certification" in out
        assert "verdict: pass" in out

    def test_unknown_format(self):
        sf = parse_structure_text(json.dumps(small_doc()))
        with pytest.raises(ValueError):
            emit(run(sf), "yaml")

    def test_rationals_serialized_as_fraction_strings(self):
        # force a failure witness and check exact "p/q" style values
        doc = {
            "dimension": 1,
            "structure": {
                "I": {"A": [["1/2"]], "B": [["0"]], "C": [["0"]], "D": [["1/2"]]},
                "J": {"A": [["0"]], "B": [["1"]], "C": [["-1"]], "D": [["0"]]},
            },
            "checks": ["certification"],
        }
        sf = parse_structure_text(json.dumps(doc))
        report = run(sf)
        payload = json.loads(emit(report, "json"))
        cert = next(s for s in payload["suites"] if s["suite"] == "certification")
        failed = [c for c in cert["checks"] if not c["pass"]]
        assert failed
        value = failed[0]["witness"]["value"]
        assert "/" in value or value.lstrip("-").isdigit()
