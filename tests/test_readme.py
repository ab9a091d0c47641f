"""The README examples stay runnable and valid."""

import json
import re
from pathlib import Path

from hybridproj.cli import RunConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced_block(heading: str, language: str) -> str:
    """The first ``language`` code block after the line ``heading``."""
    text = README.read_text()
    start = text.index(f"\n{heading}\n")
    match = re.compile(rf"```{language}\n(.*?)```", re.S).search(text, start)
    assert match is not None, f"no {language} block under {heading!r}"
    return match.group(1)


def test_library_quick_start_runs(capsys):
    exec(compile(fenced_block("## Library quick start", "python"), "README", "exec"), {})
    assert "budget" in capsys.readouterr().out


def test_config_schema_parses():
    schema = re.sub(r"//.*", "", fenced_block("### Config schema", "jsonc"))
    config = RunConfig.from_dict(json.loads(schema))
    assert config.problem["preset"] == "section4"
