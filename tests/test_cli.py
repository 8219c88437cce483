from __future__ import annotations

import gc
import json
import os
import re
import runpy
import stat
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

from behaviordfa import cli
from behaviordfa.catalog import default_catalog
from behaviordfa.cli import main
from behaviordfa.dfa import deserialize, serialize
from behaviordfa.errors import InternalInvariantError

from helpers import PATTERN_A, PATTERN_B, hand_built

SRC = Path(__file__).resolve().parent.parent / "src"


def write_jsonl(path: Path, records) -> Path:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


@pytest.fixture
def pattern_file(tmp_path):
    return write_jsonl(
        tmp_path / "patterns.jsonl",
        [
            {"id": "seed-a", "steps": PATTERN_A, "label": "malicious"},
            {"id": "seed-b", "steps": PATTERN_B, "label": "malicious"},
        ],
    )


@pytest.fixture
def other_catalog_file(tmp_path):
    path = tmp_path / "other-catalog.json"
    path.write_text(
        json.dumps([{"id": 7, "name": "Add Event Handler", "weight": 9}]), encoding="utf-8"
    )
    return path


@pytest.fixture
def umask_022():
    # A umask that lets group and others read, so a 0600 file stands out.
    previous = os.umask(0o022)
    yield
    os.umask(previous)


def file_mode(path) -> int:
    return stat.S_IMODE(os.stat(path).st_mode)


@pytest.fixture
def model_file(tmp_path, pattern_file):
    path = tmp_path / "model.json"
    assert main(["build", "--patterns", str(pattern_file), "--out", str(path)]) == 0
    return path


# Kinds of pattern line no model may grow by: the line, and the fault its error names.
BAD_PATTERN_LINES = {
    "empty": ('{"id": "x", "steps": []}', "pattern 'x' is empty"),
    "grouped": (
        '{"id": "x", "steps": [[7, 5]]}',
        "pattern 'x': step 0 holds 2 behaviors; patterns must use single-behavior steps",
    ),
    "benign": (
        '{"id": "x", "steps": [7], "label": "benign"}',
        "pattern 'x' is labeled benign; models are built from malicious sequences only",
    ),
}


class TestBuild:
    def test_build_writes_a_model_and_prints_a_summary(self, tmp_path, pattern_file, capsys):
        out = tmp_path / "model.json"
        code = main(["build", "--patterns", str(pattern_file), "--out", str(out)])
        assert code == 0
        err = capsys.readouterr().err
        assert "states=11" in err
        assert "finals=2" in err
        dfa = deserialize(out.read_bytes())
        assert dfa.state_count == 11
        assert dfa.finals == {6, 10}

    def test_build_to_stdout_when_out_absent(self, pattern_file, capsys):
        code = main(["--quiet", "build", "--patterns", str(pattern_file)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["states"] == 11

    def test_empty_patterns_file_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        code = main(["build", "--patterns", str(empty), "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert "no patterns" in capsys.readouterr().err

    def test_benign_labeled_pattern_fails_naming_the_trace(self, tmp_path, capsys):
        patterns = write_jsonl(
            tmp_path / "p.jsonl", [{"id": "oops", "steps": [7], "label": "benign"}]
        )
        code = main(["build", "--patterns", str(patterns), "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert "'oops'" in capsys.readouterr().err

    def test_a_benign_pattern_with_a_long_id_fails_quoting_it_cut_short(self, tmp_path, capsys):
        patterns = write_jsonl(
            tmp_path / "p.jsonl", [{"id": "b" * 200, "steps": [7], "label": "benign"}]
        )
        code = main(["build", "--patterns", str(patterns), "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: line 1: pattern '" + "b" * 56 + "... is labeled benign; "
            "models are built from malicious sequences only\n"
        )

    def test_a_benign_pattern_fails_on_its_line_before_the_rest_is_read(self, tmp_path, capsys):
        patterns = tmp_path / "p.jsonl"
        patterns.write_text(
            '{"id": "m", "steps": [7, 5]}\n'
            '{"id": "x", "steps": [7], "label": "benign"}\n'
            "not json\n",  # never reached: the benign pattern on line 2 stops the read
            encoding="utf-8",
        )
        code = main(["build", "--patterns", str(patterns), "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: line 2: pattern 'x' is labeled benign; "
            "models are built from malicious sequences only\n"
        )
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("kind", ["empty", "grouped"])  # benign: the test above
    def test_a_bad_pattern_fails_naming_its_line(self, tmp_path, capsys, kind):
        line2, fault = BAD_PATTERN_LINES[kind]
        patterns = tmp_path / "p.jsonl"
        patterns.write_text('{"id": "m", "steps": [7, 5]}\n' + line2 + "\n", encoding="utf-8")
        code = main(["build", "--patterns", str(patterns), "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert capsys.readouterr().err == f"error: line 2: {fault}\n"
        assert not (tmp_path / "m.json").exists()

    def test_the_first_bad_pattern_line_is_the_one_reported(self, tmp_path, capsys):
        patterns = write_jsonl(
            tmp_path / "p.jsonl",
            [{"id": "m", "steps": [7]}, {"id": "g", "steps": [[7, 5]]},
             {"id": "b", "steps": [7], "label": "benign"}],
        )
        code = main(["build", "--patterns", str(patterns), "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: line 2: pattern 'g': step 0 holds 2 ")

    def test_a_pattern_line_nested_too_deep_fails(self, tmp_path, capsys):
        patterns = tmp_path / "p.jsonl"
        deep = '{"id": "deep", "steps": ' + "[" * 5000 + "7" + "]" * 5000 + "}\n"
        patterns.write_text(deep, encoding="utf-8")
        code = main(["build", "--patterns", str(patterns), "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert "line 1: not valid JSON" in capsys.readouterr().err

    def test_a_step_holding_a_long_list_fails_with_a_short_message(self, tmp_path, capsys):
        patterns = write_jsonl(
            tmp_path / "p.jsonl", [{"id": "wide", "steps": [[list(range(100_000))]]}]
        )
        code = main(["build", "--patterns", str(patterns), "--out", str(tmp_path / "m.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "step 0 holds [0, 1, 2" in err and len(err) < 300

    def test_a_pattern_line_that_is_not_utf8_fails_naming_the_line(self, tmp_path, capsys):
        patterns = tmp_path / "p.jsonl"
        patterns.write_bytes(b'{"id": "a", "steps": [7]}\n\xff\n')
        code = main(["build", "--patterns", str(patterns), "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: line 2: not valid UTF-8: "
            "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
        )

    def test_an_unknown_id_in_a_pattern_line_fails_naming_the_line(self, tmp_path, capsys):
        patterns = write_jsonl(
            tmp_path / "p.jsonl", [{"id": "a", "steps": [7]}, {"id": "x", "steps": [99]}]
        )
        code = main(["build", "--patterns", str(patterns), "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: line 2: unknown behavior id 99 (trace 'x', step 0)\n"
        )

    @pytest.mark.parametrize("command", ["build", "add"])
    def test_a_pattern_id_that_is_not_unicode_text_fails_naming_the_line(
        self, tmp_path, model_file, capsys, command
    ):
        patterns = tmp_path / "p.jsonl"
        patterns.write_text('{"id": "x\\ud800", "steps": [7, 5]}\n', encoding="utf-8")
        before = model_file.read_bytes()
        target = {"build": "--out", "add": "--model"}[command]
        argv = [command, "--patterns", str(patterns), target, str(model_file)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: line 1: trace id 'x\\ud800' is not valid Unicode text\n"
        )
        assert model_file.read_bytes() == before

    def test_a_catalog_name_that_is_not_unicode_text_fails(self, tmp_path, model_file, capsys):
        catalog = tmp_path / "catalog.json"
        catalog.write_text(json.dumps([{"id": 7, "name": "Find\ud800", "weight": 2}]))
        patterns = write_jsonl(tmp_path / "p.jsonl", [{"id": "x", "steps": [7]}])
        expected = "error: entry 1: behavior 7: name is not valid Unicode text\n"
        out = tmp_path / "out"
        build = ["build", "--patterns", str(patterns), "--catalog", str(catalog)]
        export = ["export-dot", "--model", str(model_file), "--catalog", str(catalog)]
        for argv in (build, export):
            assert main([*argv, "--out", str(out)]) == 1
            assert capsys.readouterr().err == expected
        assert not out.exists()

    def test_no_partial_model_is_left_behind_on_failure(self, tmp_path):
        bad = write_jsonl(tmp_path / "p.jsonl", [{"id": "x", "steps": [99]}])
        out = tmp_path / "model.json"
        assert main(["build", "--patterns", str(bad), "--out", str(out)]) == 1
        assert not out.exists()

    def test_new_out_file_gets_the_mode_open_gives(self, tmp_path, pattern_file, umask_022):
        out = tmp_path / "model.json"
        code = main(["--quiet", "build", "--patterns", str(pattern_file), "--out", str(out)])
        assert code == 0
        reference = tmp_path / "reference.json"
        with open(reference, "wb"):
            pass
        assert file_mode(out) == file_mode(reference)

    def test_out_through_a_symlink_writes_the_file_it_points_to(self, tmp_path, pattern_file):
        (tmp_path / "real").mkdir()
        (tmp_path / "links").mkdir()
        real = tmp_path / "real" / "model.json"
        real.write_bytes(b"old\n")
        link = tmp_path / "links" / "model.json"
        link.symlink_to(Path("..") / "real" / "model.json")
        code = main(["--quiet", "build", "--patterns", str(pattern_file), "--out", str(link)])
        assert code == 0
        assert link.is_symlink()
        assert deserialize(real.read_bytes()).state_count == 11
        assert list((tmp_path / "links").iterdir()) == [link]

    def test_custom_catalog(self, tmp_path, capsys):
        catalog_file = tmp_path / "catalog.json"
        catalog_file.write_text(
            json.dumps([{"id": 7, "name": "Add Event Handler", "weight": 9}]),
            encoding="utf-8",
        )
        patterns = write_jsonl(tmp_path / "p.jsonl", [{"id": "x", "steps": [7]}])
        out = tmp_path / "m.json"
        code = main(
            ["build", "--patterns", str(patterns), "--catalog", str(catalog_file), "--out", str(out)]
        )
        assert code == 0
        dfa = deserialize(out.read_bytes())
        assert dfa.transitions[0].weight == 9

    def test_missing_patterns_file(self, tmp_path, capsys):
        code = main(["build", "--patterns", str(tmp_path / "nope.jsonl")])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestAdd:
    def test_add_extends_the_model_in_place(self, tmp_path, model_file, capsys):
        more = write_jsonl(tmp_path / "more.jsonl", [{"id": "stub", "steps": [5, 1]}])
        code = main(["add", "--model", str(model_file), "--patterns", str(more)])
        assert code == 0
        dfa = deserialize(model_file.read_bytes())
        assert 8 in dfa.finals
        assert dfa.pattern_count == 3
        assert "patterns=3" in capsys.readouterr().err

    def test_re_add_is_idempotent_except_for_the_count(self, tmp_path, model_file, pattern_file):
        before = deserialize(model_file.read_bytes())
        assert main(["add", "--model", str(model_file), "--patterns", str(pattern_file)]) == 0
        after = deserialize(model_file.read_bytes())
        assert after.transitions == before.transitions
        assert after.finals == before.finals
        assert after.pattern_count == before.pattern_count + 2

    # Under umask 022 a new file gets 0o644: a replaced model that took it fails each case.
    @pytest.mark.parametrize("mode", [0o640, 0o600, 0o666], ids=oct)
    def test_add_keeps_the_mode_of_the_model(
        self, tmp_path, model_file, pattern_file, umask_022, mode
    ):
        os.chmod(model_file, mode)
        code = main(["--quiet", "add", "--model", str(model_file), "--patterns", str(pattern_file)])
        assert code == 0
        assert file_mode(model_file) == mode

    def test_add_through_a_symlink_updates_the_file_it_points_to(
        self, tmp_path, model_file, capsys
    ):
        (tmp_path / "real").mkdir()
        (tmp_path / "links").mkdir()
        real = model_file.rename(tmp_path / "real" / "model.json")
        link = tmp_path / "links" / "model.json"
        link.symlink_to(Path("..") / "real" / "model.json")
        more = write_jsonl(tmp_path / "more.jsonl", [{"id": "stub", "steps": [5, 1]}])
        assert main(["add", "--model", str(link), "--patterns", str(more)]) == 0
        assert "model updated" in capsys.readouterr().err
        assert link.is_symlink()
        assert deserialize(real.read_bytes()).pattern_count == 3

    def test_a_failed_rename_leaves_the_model_and_no_temp_file(
        self, tmp_path, model_file, monkeypatch, capsys
    ):
        def fail(src, dst):
            raise OSError("rename refused")

        more = write_jsonl(tmp_path / "more.jsonl", [{"id": "stub", "steps": [5, 1]}])
        before = model_file.read_bytes()
        monkeypatch.setattr(os, "replace", fail)
        assert main(["add", "--model", str(model_file), "--patterns", str(more)]) == 1
        assert capsys.readouterr().err == "error: rename refused\n"
        assert model_file.read_bytes() == before
        assert list(model_file.parent.glob("*.tmp")) == []

    def test_mismatched_catalog_fails_loudly(self, tmp_path, model_file, capsys):
        other = tmp_path / "other-catalog.json"
        other.write_text(
            json.dumps([{"id": 7, "name": "Add Event Handler", "weight": 9}]),
            encoding="utf-8",
        )
        more = write_jsonl(tmp_path / "more.jsonl", [{"id": "x", "steps": [7]}])
        code = main(
            ["add", "--model", str(model_file), "--patterns", str(more), "--catalog", str(other)]
        )
        assert code == 1
        assert "catalog" in capsys.readouterr().err
        # Model untouched on failure.
        assert deserialize(model_file.read_bytes()).pattern_count == 2

    @pytest.mark.parametrize(
        "lines, message",
        [
            pytest.param(['{"id": "x", "steps": [7]}', "{broken"], "line 2", id="malformed"),
            pytest.param(['{"id": "x", "steps": [7], "label": "benign"}'], "'x'", id="benign"),
            *(
                pytest.param(['{"id": "m", "steps": [7]}', line2], f"error: line 2: {fault}\n",
                             id=f"line-2-{kind}")
                for kind, (line2, fault) in BAD_PATTERN_LINES.items()
            ),
        ],
    )
    def test_bad_pattern_file_fails_and_leaves_the_model_alone(
        self, tmp_path, model_file, capsys, lines, message
    ):
        patterns = tmp_path / "bad.jsonl"
        patterns.write_text("\n".join(lines) + "\n", encoding="utf-8")
        before = model_file.read_bytes()
        code = main(["add", "--model", str(model_file), "--patterns", str(patterns)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert model_file.read_bytes() == before

    def test_pattern_file_is_checked_before_the_model_is_loaded(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text("{broken", encoding="utf-8")
        patterns = write_jsonl(
            tmp_path / "p.jsonl", [{"id": "oops", "steps": [7], "label": "benign"}]
        )
        code = main(["add", "--model", str(model), "--patterns", str(patterns)])
        assert code == 1
        err = capsys.readouterr().err
        assert "'oops'" in err and "benign" in err
        assert "model file" not in err


class TestClassify:
    def test_json_report_and_summary_line(self, tmp_path, model_file, capsys):
        traces = write_jsonl(
            tmp_path / "traces.jsonl",
            [
                {"id": "one", "steps": [7, 3]},
                {"id": "two", "steps": [5, 3]},
                {"id": "three", "steps": [7, 5, 3]},
                {"id": "four", "steps": [5, 1, 3]},
            ],
        )
        code = main(["classify", "--model", str(model_file), "--traces", str(traces)])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err.strip().endswith("malign:0 partial:4 benign:0")
        lines = [json.loads(line) for line in captured.out.splitlines()]
        assert [r["match_percentage"] for r in lines[:4]] == ["18.75", "30", "37.5", "50"]
        assert lines[4]["summary"]["histogram"] == {"18.75": 1, "30": 1, "37.5": 1, "50": 1}

    def test_csv_format(self, tmp_path, model_file, capsys):
        traces = write_jsonl(tmp_path / "traces.jsonl", [{"id": "one", "steps": [7, 5]}])
        code = main(
            ["classify", "--model", str(model_file), "--traces", str(traces), "--format", "csv"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [
            "id,verdict,percentage,label",
            "one,partially_malign,37.5,",
        ]

    def test_report_written_to_file(self, tmp_path, model_file, capsys):
        traces = write_jsonl(tmp_path / "t.jsonl", [{"id": "a", "steps": PATTERN_B}])
        report = tmp_path / "report.jsonl"
        code = main(
            ["classify", "--model", str(model_file), "--traces", str(traces), "--out", str(report)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        lines = report.read_text(encoding="utf-8").splitlines()
        assert json.loads(lines[0])["verdict"] == "malign"

    @pytest.mark.parametrize(
        "command, clash",
        [
            pytest.param("classify", "--traces", id="--traces"),
            pytest.param("classify", "--model", id="--model"),
            pytest.param("classify", "--catalog", id="classify --catalog"),
            pytest.param("build", "--patterns", id="build --patterns"),
            pytest.param("build", "--catalog", id="build --catalog"),
            pytest.param("export-dot", "--model", id="export-dot --model"),
            pytest.param("export-dot", "--catalog", id="export-dot --catalog"),
        ],
    )
    def test_out_that_names_an_input_is_refused(
        self, tmp_path, pattern_file, model_file, capsys, command, clash
    ):
        catalog = tmp_path / "catalog.json"
        catalog.write_bytes(default_catalog().to_json())
        traces = write_jsonl(tmp_path / "t.jsonl", [{"id": "a", "steps": PATTERN_B}])
        inputs = {
            "build": {"--patterns": pattern_file, "--catalog": catalog},
            "classify": {"--model": model_file, "--traces": traces, "--catalog": catalog},
            "export-dot": {"--model": model_file, "--catalog": catalog},
        }[command]
        before = {flag: path.read_bytes() for flag, path in inputs.items()}
        argv = [command] + [arg for flag, path in inputs.items() for arg in (flag, str(path))]
        code = main(argv + ["--out", str(inputs[clash])])
        assert code == 1
        captured = capsys.readouterr()
        assert f"is the {clash} file" in captured.err
        assert captured.out == ""
        assert {flag: path.read_bytes() for flag, path in inputs.items()} == before

    def test_empty_traces_file(self, tmp_path, model_file, capsys):
        traces = tmp_path / "empty.jsonl"
        traces.write_text("", encoding="utf-8")
        code = main(["classify", "--model", str(model_file), "--traces", str(traces)])
        assert code == 0
        captured = capsys.readouterr()
        assert "malign:0 partial:0 benign:0" in captured.err
        (summary_line,) = captured.out.splitlines()
        assert json.loads(summary_line)["summary"]["counts"] == {
            "malign": 0,
            "partially_malign": 0,
            "benign": 0,
        }

    def test_malformed_line_is_counted_not_fatal(self, tmp_path, model_file, capsys):
        traces = tmp_path / "traces.jsonl"
        traces.write_text(
            json.dumps({"id": "ok", "steps": [7]}) + "\n{broken\n", encoding="utf-8"
        )
        code = main(["classify", "--model", str(model_file), "--traces", str(traces)])
        assert code == 0
        captured = capsys.readouterr()
        assert "errors:1" in captured.err
        lines = [json.loads(line) for line in captured.out.splitlines()]
        assert lines[1]["line"] == 2
        assert lines[2]["summary"]["record_errors"] == 1

    def test_a_line_nested_too_deep_is_one_record_error(self, tmp_path, model_file, capsys):
        traces = tmp_path / "traces.jsonl"
        deep = '{"id": "deep", "steps": ' + "[" * 5000 + "7" + "]" * 5000 + "}"
        good = json.dumps({"id": "ok", "steps": [7]})
        traces.write_text(deep + "\n" + good + "\n", encoding="utf-8")
        code = main(["classify", "--model", str(model_file), "--traces", str(traces)])
        assert code == 0
        captured = capsys.readouterr()
        assert "errors:1" in captured.err
        error, record, summary = [json.loads(line) for line in captured.out.splitlines()]
        assert error["line"] == 1 and "not valid JSON" in error["error"]
        assert record["id"] == "ok"
        assert summary["summary"]["record_errors"] == 1

    def test_a_step_holding_a_long_list_is_one_short_record_error(
        self, tmp_path, model_file, capsys
    ):
        traces = write_jsonl(
            tmp_path / "traces.jsonl",
            [{"id": "wide", "steps": [[list(range(100_000))]]}, {"id": "ok", "steps": [7]}],
        )
        code = main(["classify", "--model", str(model_file), "--traces", str(traces)])
        assert code == 0
        error, record, summary = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert error["line"] == 1 and "step 0 holds [0, 1, 2" in error["error"]
        assert len(error["error"]) < 200
        assert record["id"] == "ok" and summary["summary"]["record_errors"] == 1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
    def test_an_id_that_is_not_unicode_text_is_one_record_error(
        self, tmp_path, model_file, capsys, fmt, to_file
    ):
        traces = tmp_path / "t.jsonl"
        good = json.dumps({"id": "ok", "steps": [7]})
        traces.write_text('{"id": "x\\ud800", "steps": [7, 5]}\n' + good + "\n")
        report = tmp_path / f"r.{fmt}"
        out = ["--out", str(report)] if to_file else []
        argv = ["classify", "--model", str(model_file), "--traces", str(traces), "--format", fmt]
        assert main([*argv, *out]) == 0
        captured = capsys.readouterr()
        assert "errors:1" in captured.err
        text = report.read_text(encoding="utf-8") if to_file else captured.out
        if fmt == "csv":
            assert text.splitlines()[1:] == ["ok,partially_malign,18.75,"]
        else:
            error = json.loads(text.splitlines()[0])
            assert error == {
                "error": "line 1: trace id 'x\\ud800' is not valid Unicode text", "line": 1
            }

    @pytest.mark.parametrize("broken", ["--traces", "--model", "--catalog"])
    def test_an_input_that_cannot_be_opened_leaves_the_old_report(
        self, tmp_path, model_file, capsys, broken
    ):
        catalog = tmp_path / "catalog.json"
        catalog.write_bytes(default_catalog().to_json())
        traces = write_jsonl(tmp_path / "t.jsonl", [{"id": "a", "steps": PATTERN_B}])
        bad = tmp_path / "missing.jsonl"
        if broken != "--traces":
            bad = tmp_path / "broken.json"
            bad.write_text("{broken", encoding="utf-8")
        inputs = {"--model": model_file, "--traces": traces, "--catalog": catalog, broken: bad}
        report = tmp_path / "old.json"
        report.write_bytes(b'{"summary": "an earlier run"}\n')
        argv = ["classify"] + [arg for flag, path in inputs.items() for arg in (flag, str(path))]
        assert main([*argv, "--out", str(report)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert report.read_bytes() == b'{"summary": "an earlier run"}\n'

    def test_catalog_flag_turns_on_id_validation(self, tmp_path, model_file, capsys):
        traces = write_jsonl(tmp_path / "t.jsonl", [{"id": "a", "steps": [999]}])
        code = main(["classify", "--model", str(model_file), "--traces", str(traces)])
        assert code == 0
        assert "benign:1" in capsys.readouterr().err

        catalog_file = tmp_path / "catalog.json"
        catalog_file.write_bytes(default_catalog().to_json())
        code = main(
            [
                "classify",
                "--model",
                str(model_file),
                "--traces",
                str(traces),
                "--catalog",
                str(catalog_file),
            ]
        )
        assert code == 0
        assert "errors:1" in capsys.readouterr().err

    def test_corrupt_model_is_a_user_error(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text("{broken", encoding="utf-8")
        traces = write_jsonl(tmp_path / "t.jsonl", [{"id": "a", "steps": [7]}])
        code = main(["classify", "--model", str(model), "--traces", str(traces)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--model", "--catalog"])
    def test_a_file_nested_too_deep_is_a_user_error(self, tmp_path, model_file, flag, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 5000 + "]" * 5000, encoding="utf-8")
        traces = write_jsonl(tmp_path / "t.jsonl", [{"id": "a", "steps": [7]}])
        inputs = {"--model": str(model_file), "--traces": str(traces), flag: str(deep)}
        code = main(["classify"] + [arg for item in inputs.items() for arg in item])
        assert code == 1
        assert f"{flag[2:]} file is not valid JSON" in capsys.readouterr().err

    def test_model_that_is_not_a_trie_is_a_user_error(self, tmp_path, capsys):
        # State 3 is entered from both 1 and 2. Unchecked, the walk [11, 1]
        # collects weight 7 against a denominator of 6 taken through state 2.
        edges = [(0, 1, 2, 2), (0, 11, 1, 5), (1, 1, 3, 2), (2, 1, 3, 2), (3, 1, 4, 2)]
        dag = hand_built(5, edges, {4}, default_catalog().fingerprint())
        model = tmp_path / "model.json"
        model.write_bytes(serialize(dag))
        traces = write_jsonl(tmp_path / "t.jsonl", [{"id": "a", "steps": [11, 1]}])
        code = main(["classify", "--model", str(model), "--traces", str(traces)])
        assert code == 1
        captured = capsys.readouterr()
        assert "not-a-trie: state 3" in captured.err
        assert captured.out == ""

    def test_mismatched_catalog_fails_loudly(
        self, tmp_path, model_file, other_catalog_file, capsys
    ):
        traces = write_jsonl(tmp_path / "t.jsonl", [{"id": "a", "steps": [7]}])
        code = main(
            [
                "classify",
                "--model",
                str(model_file),
                "--traces",
                str(traces),
                "--catalog",
                str(other_catalog_file),
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "catalog" in captured.err
        assert captured.out == ""


class TestExportDot:
    def test_dot_written_to_file(self, tmp_path, model_file):
        out = tmp_path / "model.dot"
        code = main(["export-dot", "--model", str(model_file), "--out", str(out)])
        assert code == 0
        dot = out.read_text(encoding="utf-8")
        assert dot.startswith("digraph behavior_dfa {")
        assert 'q0 -> q1 [label="Add Event Handler (7, w=3)"];' in dot

    def test_dot_to_stdout(self, model_file, capsys):
        assert main(["export-dot", "--model", str(model_file)]) == 0
        assert "doublecircle" in capsys.readouterr().out


    def test_mismatched_catalog_fails_loudly(
        self, tmp_path, model_file, other_catalog_file, capsys
    ):
        out = tmp_path / "model.dot"
        code = main(
            [
                "export-dot",
                "--model",
                str(model_file),
                "--catalog",
                str(other_catalog_file),
                "--out",
                str(out),
            ]
        )
        assert code == 1
        assert "catalog" in capsys.readouterr().err
        assert not out.exists()

    def test_a_custom_catalog_model_needs_its_catalog(self, tmp_path, capsys):
        catalog_file = tmp_path / "custom.json"
        catalog_file.write_text(
            json.dumps(
                [
                    {"id": 7, "name": "Custom Seven", "weight": 9},
                    {"id": 5, "name": "Custom Five", "weight": 1},
                ]
            ),
            encoding="utf-8",
        )
        patterns = write_jsonl(tmp_path / "p.jsonl", [{"id": "x", "steps": [7, 5]}])
        model = tmp_path / "m.json"
        build = ["build", "--patterns", str(patterns), "--catalog", str(catalog_file)]
        assert main(build + ["--out", str(model)]) == 0
        capsys.readouterr()
        # Without --catalog the built-in one stands in, and it is not the model's.
        assert main(["export-dot", "--model", str(model)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: model was built with catalog ")
        assert captured.out == ""
        code = main(["export-dot", "--model", str(model), "--catalog", str(catalog_file)])
        assert code == 0
        dot = capsys.readouterr().out
        assert 'q0 -> q1 [label="Custom Seven (7, w=9)"];' in dot
        assert 'q1 -> q2 [label="Custom Five (5, w=1)"];' in dot


class TestCliContract:
    def test_quiet_and_verbose_conflict(self, pattern_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--quiet", "--verbose", "build", "--patterns", str(pattern_file)])
        assert excinfo.value.code == 1

    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["classify", "--model"])
        assert excinfo.value.code == 1

    def test_quiet_suppresses_the_summary(self, tmp_path, model_file, capsys):
        traces = write_jsonl(tmp_path / "t.jsonl", [{"id": "a", "steps": [7]}])
        report = tmp_path / "r.jsonl"
        code = main(
            [
                "--quiet",
                "classify",
                "--model",
                str(model_file),
                "--traces",
                str(traces),
                "--out",
                str(report),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == ""

    def test_module_entry_point(self, tmp_path, pattern_file):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = tmp_path / "model.json"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "behaviordfa",
                "build",
                "--patterns",
                str(pattern_file),
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "states=11" in proc.stderr
        assert out.exists()

    @pytest.mark.parametrize("verbose", [False, True])
    @pytest.mark.parametrize(
        "exc, line",
        [
            (RuntimeError("boom"), "internal error: RuntimeError: boom\n"),
            (InternalInvariantError("broken"), "internal error: broken\n"),
        ],
    )
    def test_a_bug_exits_two_with_a_traceback_only_under_verbose(
        self, pattern_file, monkeypatch, capsys, exc, line, verbose
    ):
        def fail(args):
            raise exc

        monkeypatch.setattr("behaviordfa.cli._cmd_build", fail)
        flags = ["--verbose"] if verbose else []
        assert main(flags + ["build", "--patterns", str(pattern_file)]) == 2
        err = capsys.readouterr().err
        assert err.endswith(line)
        assert ("Traceback (most recent call last)" in err) == verbose

    def test_import_leaves_logging_unloaded(self):
        # Importing logging costs milliseconds of start-up that every command pays.
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, behaviordfa.cli; print('logging' in sys.modules)"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_import_and_classify_leave_unused_modules_unloaded(self, tmp_path, model_file):
        # -S: .pth files in site-packages may import some of these themselves. A --catalog
        # file that spells the stock catalog is not hashed, so OpenSSL is not loaded either.
        traces = write_jsonl(tmp_path / "traces.jsonl", [{"id": "a", "steps": [7, 5]}])
        report = tmp_path / "report.jsonl"
        catalog = tmp_path / "catalog.json"
        catalog.write_bytes(default_catalog().to_json())
        script = (
            "import sys, behaviordfa.cli\n"
            "model, traces, report, catalog = sys.argv[1:]\n"
            "unused = ['dataclasses', 'inspect', 'hashlib', '_hashlib', 'tempfile', 'csv',"
            " 'shutil']\n"
            "loaded = lambda: [m for m in unused if m in sys.modules]\n"
            "argv = ['--quiet', 'classify', '--model', model, '--traces', traces,"
            " '--out', report]\n"
            "print(loaded())\n"
            "print(behaviordfa.cli.main(argv), loaded())\n"
            "print(behaviordfa.cli.main(argv + ['--catalog', catalog]), loaded())\n"
        )
        paths = (model_file, traces, report, catalog)
        proc = subprocess.run(
            [sys.executable, "-S", "-c", script, *map(str, paths)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n0 []\n0 []\n"
        assert '"verdict": "partially_malign"' in report.read_text(encoding="utf-8")

    def test_build_and_add_with_the_built_in_catalog_leave_hashlib_unloaded(
        self, tmp_path, pattern_file
    ):
        # The stock catalog's fingerprint is stored, also for a file that spells it; only
        # another catalog, here one weight apart, is hashed. Writing the model names its temp
        # file without tempfile.
        more = write_jsonl(tmp_path / "more.jsonl", [{"id": "c", "steps": [7, 3, 3, 11]}])
        stock = tmp_path / "catalog.json"
        stock.write_bytes(default_catalog().to_json())
        other = tmp_path / "other.json"
        entries = json.loads(stock.read_bytes())
        entries[-1]["weight"] += 1
        other.write_text(json.dumps(entries), encoding="utf-8")
        script = (
            "import sys, behaviordfa.cli\n"
            "patterns, more, model, stock, other = sys.argv[1:]\n"
            "main = behaviordfa.cli.main\n"
            "loaded = lambda: ('hashlib' in sys.modules, 'tempfile' in sys.modules)\n"
            "print(main(['--quiet', 'build', '--patterns', patterns, '--out', model]),"
            " *loaded())\n"
            "print(main(['--quiet', 'add', '--model', model, '--patterns', more]), *loaded())\n"
            "print(main(['--quiet', 'build', '--patterns', patterns, '--out', model,"
            " '--catalog', stock]), *loaded())\n"
            "print(main(['--quiet', 'build', '--patterns', patterns, '--out', model,"
            " '--catalog', other]), *loaded())\n"
        )
        paths = (pattern_file, more, tmp_path / "model.json", stock, other)
        proc = subprocess.run(
            [sys.executable, "-S", "-c", script, *map(str, paths)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0 False False\n0 False False\n0 False False\n0 True False\n"


def _module_cli(*args, env=None, **kwargs):
    """`python -m behaviordfa ARGS`, which goes through cli.run(), as a completed process.

    `env` is the environment to run it in, os.environ if not given."""
    return subprocess.run(
        [sys.executable, "-m", "behaviordfa", *map(str, args)],
        capture_output=True,
        env=dict(os.environ if env is None else env, PYTHONPATH=str(SRC)),
        **kwargs,
    )


HELP = """\
usage: behaviordfa [-h] [--quiet | --verbose]
                   {build,add,classify,export-dot} ...

Classify JavaScript behavior traces against a weighted automaton of known-
malicious sequences.

positional arguments:
  {build,add,classify,export-dot}
    build               build a model from malicious patterns
    add                 add patterns to an existing model
    classify            classify a trace file
    export-dot          render a model as Graphviz DOT

options:
  -h, --help            show this help message and exit
  --quiet               suppress summary output
  --verbose             print internal-error tracebacks
"""


class TestProcessEntry:
    """cli.run(), the process entry: what main() returns, with nothing lost at exit."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_report_on_stdout_equals_the_out_file(self, tmp_path, model_file, fmt):
        traces = write_jsonl(
            tmp_path / "t.jsonl",
            [{"id": f"t{i}", "steps": PATTERN_A[: i % 12 + 1], "label": "malicious"}
             for i in range(300)],
        )
        report = tmp_path / f"report.{fmt}"
        flags = ["classify", "--model", model_file, "--traces", traces, "--format", fmt]
        to_file = _module_cli(*flags, "--out", report)
        to_stdout = _module_cli(*flags)
        assert (to_file.returncode, to_stdout.returncode) == (0, 0), to_stdout.stderr
        assert to_file.stdout == b""
        assert to_stdout.stdout == report.read_bytes()
        assert to_stdout.stderr == to_file.stderr == b"malign:75 partial:225 benign:0\n"

    def test_a_model_built_to_stdout_loads(self, pattern_file, model_file):
        proc = _module_cli("build", "--patterns", pattern_file)
        assert proc.returncode == 0, proc.stderr
        assert deserialize(proc.stdout) == deserialize(model_file.read_bytes())

    def test_a_missing_model_exits_one(self, tmp_path):
        traces = write_jsonl(tmp_path / "t.jsonl", [{"id": "a", "steps": [7]}])
        proc = _module_cli("classify", "--model", tmp_path / "absent.json", "--traces", traces)
        assert proc.returncode == 1
        assert proc.stderr.startswith(b"error: ")
        assert proc.stdout == b""

    def test_help_exits_zero(self):
        proc = _module_cli("--help")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(b"usage: behaviordfa")

    def test_help_has_a_fixed_width(self):
        # 78 columns, what argparse takes when there is no terminal and COLUMNS is unset.
        env = {k: v for k, v in os.environ.items() if k != "COLUMNS"}
        for columns in (None, "40", "200"):
            if columns is not None:
                env["COLUMNS"] = columns
            proc = _module_cli("--help", env=env)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.decode("utf-8") == HELP, columns

    def test_run_raises_the_collector_threshold_and_skips_teardown(self, tmp_path, model_file):
        # An atexit handler runs only if the interpreter tears itself down.
        script = (
            "import atexit, gc, sys\n"
            "import behaviordfa.cli as cli\n"
            "atexit.register(print, 'teardown')\n"
            "main = cli.main\n"
            "cli.main = lambda: print(gc.get_threshold()[0]) or main()\n"
            "sys.argv[1:] = ['export-dot', '--model', sys.argv[1]]\n"
            "cli.run()\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(model_file)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode == 0, proc.stderr
        threshold, dot = proc.stdout.split("\n", 1)
        assert threshold == "100000"
        assert dot.startswith("digraph behavior_dfa {") and dot.endswith("}\n")

    def test_a_failed_flush_exits_through_sys_exit(self, monkeypatch):
        class Unflushable:
            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(gc, "set_threshold", lambda *_: None)
        monkeypatch.setattr("behaviordfa.cli.main", lambda: 3)
        monkeypatch.setattr(sys, "stdout", Unflushable())
        monkeypatch.setattr(os, "_exit", pytest.fail)
        with pytest.raises(SystemExit) as excinfo:
            cli.run()
        assert excinfo.value.code == 3

    def test_main_leaves_the_collector_threshold_alone(self, tmp_path, model_file, capsys):
        before = gc.get_threshold()
        traces = write_jsonl(tmp_path / "t.jsonl", [{"id": "a", "steps": [7]}])
        assert main(["classify", "--model", str(model_file), "--traces", str(traces)]) == 0
        assert gc.get_threshold() == before

    def test_the_module_and_the_console_script_both_reach_run(self, monkeypatch):
        pyproject = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
        scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        module, attr = re.fullmatch(r'behaviordfa = "(.+):(.+)"\n', scripts).groups()
        assert getattr(import_module(module), attr) is cli.run
        reached = []
        monkeypatch.setattr(cli, "run", lambda: reached.append("run"))
        runpy.run_module("behaviordfa", run_name="__main__")
        assert reached == ["run"]


class TestCollectorAssumption:
    """run() raises the collector's threshold because a command's objects hold no cycles.

    A cycle made per record would make that threshold a memory leak, so a
    classify of ten times the records must leave exactly as much garbage
    for the collector as a classify of the first tenth.
    """

    LINES = [
        json.dumps({"id": "good-{}", "steps": [7, [5, 1], 1, 1], "label": "malicious"}),
        '{"id": "bad-json-{}", "steps": [7',
        json.dumps({"id": "unknown-{}", "steps": [7, 999]}),
        json.dumps({"id": "empty-step-{}", "steps": [7, []]}),
        json.dumps({"id": "repeat-{}", "steps": [[7, 7]]}),
        json.dumps({"steps": [7]}),
        json.dumps({"id": "negative-{}", "steps": [-1]}),
        json.dumps({"id": "good-{}-b", "steps": PATTERN_B}),
    ]

    def traces(self, path: Path, copies: int) -> Path:
        text = "".join(
            line.replace("{}", str(i)) + "\n" for i in range(copies) for line in self.LINES
        )
        path.write_text(text, encoding="utf-8")
        return path

    def test_garbage_does_not_grow_with_the_records(self, tmp_path, model_file):
        catalog = tmp_path / "catalog.json"
        catalog.write_bytes(default_catalog().to_json())
        few = self.traces(tmp_path / "few.jsonl", 20)
        many = self.traces(tmp_path / "many.jsonl", 200)

        def classify(traces) -> int:
            argv = ["--quiet", "classify", "--model", str(model_file), "--traces", str(traces),
                    "--catalog", str(catalog), "--out", str(tmp_path / "report.json")]
            assert main(argv) == 0
            return gc.collect()

        was_enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            classify(few)  # one-time objects (caches, lazy imports) settle here
            found = [classify(few), classify(many)]
        finally:
            if was_enabled:
                gc.enable()
        assert found[0] == found[1]
        report = json.loads((tmp_path / "report.json").read_text().splitlines()[-1])
        assert report["summary"]["record_errors"] == 6 * 200
