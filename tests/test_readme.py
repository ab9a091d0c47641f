"""The README examples stay runnable and valid."""

import json
import re
from pathlib import Path

from hybridproj import cli

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
    # The run gate too: a stale key or an inadmissible value fails here.
    schema = re.sub(r"//.*", "", fenced_block("### Config schema", "jsonc"))
    config = cli.RunConfig.from_dict(json.loads(schema))
    built = cli.build_inputs(config, cli.resolve_workers(None, config))
    assert config.problem["preset"] == "section4"
    assert built.family.n_geps == 2000 and built.family.n_maps == 3000
