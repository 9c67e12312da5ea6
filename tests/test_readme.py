"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

from click.testing import CliRunner

from clusterflag.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks, "README.md has no python example"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})


def test_readme_cli_examples_run(tmp_path):
    """Every ``clusterflag`` line of the CLI section, in order and in one
    directory, exits 0 and prints what its ``->`` shows."""
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    lines = [
        line
        for block in re.findall(r"```\n(.*?)```", section, re.S)
        for line in block.splitlines()
        if line.startswith("clusterflag ")
    ]
    assert len(lines) > 10, "README.md CLI section lost its examples"
    runner = CliRunner()
    with runner.isolated_filesystem(temp_dir=tmp_path):
        for line in lines:
            command, _, expected = line.partition("->")
            result = runner.invoke(main, shlex.split(command)[1:])
            assert result.exit_code == 0, (line, result.output)
            if expected:
                assert result.output.strip() == expected.strip(), line
