"""The README's library example runs as written on the quickstart's files."""

from __future__ import annotations

import json
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def section(text: str, heading: str) -> str:
    """The body of a `## heading` section, up to the next `## ` heading."""
    start = text.index(f"\n## {heading}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def test_library_example_classifies_the_quickstart_traces(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    quickstart = section(text, "CLI quickstart")
    heredocs = dict(
        re.findall(r"^cat > (\S+) <<'EOF'\n(.*?)^EOF$", quickstart, re.MULTILINE | re.DOTALL)
    )
    assert sorted(heredocs) == ["patterns.jsonl", "traces.jsonl"]
    for name, body in heredocs.items():
        (tmp_path / name).write_text(body, encoding="utf-8")
    (example,) = re.findall(r"```python\n(.*?)```", section(text, "Library use"), re.DOTALL)

    monkeypatch.chdir(tmp_path)
    exec(compile(example, "README.md", "exec"), {})

    lines = capsys.readouterr().out.splitlines()
    traces = [json.loads(line) for line in heredocs["traces.jsonl"].splitlines()]
    assert [line.split()[0] for line in lines[:-1]] == [t["id"] for t in traces]
    assert lines[-1] == "malign:0 partial:2 benign:1"
    assert f"# {lines[-1]}\n" in quickstart  # the mix the CLI quickstart states
