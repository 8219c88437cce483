from __future__ import annotations

import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from behaviordfa.catalog import default_catalog
from behaviordfa.cli import main
from behaviordfa.dfa import BehaviorDfa, Transition, deserialize, serialize
from behaviordfa.errors import InternalInvariantError

from helpers import PATTERN_A, PATTERN_B

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

    def test_add_keeps_the_mode_of_the_model(self, tmp_path, model_file, pattern_file, umask_022):
        os.chmod(model_file, 0o640)
        code = main(["--quiet", "add", "--model", str(model_file), "--patterns", str(pattern_file)])
        assert code == 0
        assert file_mode(model_file) == 0o640

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

    @pytest.mark.parametrize("clash", ["--traces", "--model"])
    def test_out_that_names_an_input_is_refused(self, tmp_path, model_file, capsys, clash):
        traces = write_jsonl(tmp_path / "t.jsonl", [{"id": "a", "steps": PATTERN_B}])
        inputs = {"--traces": traces, "--model": model_file}
        before = {flag: path.read_bytes() for flag, path in inputs.items()}
        argv = ["classify", "--model", str(model_file), "--traces", str(traces)]
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


    def test_model_that_is_not_a_trie_is_a_user_error(self, tmp_path, capsys):
        # State 3 is entered from both 1 and 2. Unchecked, the walk [11, 1]
        # collects weight 7 against a denominator of 6 taken through state 2.
        dag = BehaviorDfa(
            state_count=5,
            transitions=(
                Transition(0, 1, 2, 2),
                Transition(0, 11, 1, 5),
                Transition(1, 1, 3, 2),
                Transition(2, 1, 3, 2),
                Transition(3, 1, 4, 2),
            ),
            finals=frozenset({4}),
            catalog_fingerprint=default_catalog().fingerprint(),
            pattern_count=1,
        )
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
