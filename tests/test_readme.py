"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from clusterflag.cli import main, seed_from_dict, seed_to_dict
from clusterflag.flags import GrassmannianSeed
from clusterflag.quiver import MAX_EXPONENT, LaurentError, LaurentExpr

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


def test_readme_states_the_kernel_bound():
    """The README's Laurent bound and arrow-multiplicity limit are the
    kernel's: exponents of +-MAX_EXPONENT survive ``LaurentExpr`` and a seed
    snapshot's round trip, and one more raises."""
    text = " ".join(README.read_text().split())
    stated = [
        re.search(r"multiplicity below 1 or above (\d+)", text),
        re.search(r"Laurent kernel's bound of ±(\d+)", text),
        re.search(r"Exponents stay within ±(\d+)", text),
    ]
    assert all(stated), "README.md no longer states the Laurent bound"
    assert MAX_EXPONENT == 8191
    assert [int(m.group(1)) for m in stated] == [MAX_EXPONENT] * 3

    exps = (MAX_EXPONENT, 0, -MAX_EXPONENT, 0, 1)
    assert LaurentExpr(5, {exps: 3}).exponent_items() == [(exps, 3)]
    data = seed_to_dict(GrassmannianSeed(2, 4).seed)
    data["vertices"][3]["laurent"] = [[list(exps), 3]]
    back = seed_from_dict(data)
    assert back.variables[data["vertices"][3]["id"]].laurent.exponent_items() == [(exps, 3)]
    assert seed_to_dict(back) == data
    for past in (MAX_EXPONENT + 1, -MAX_EXPONENT - 1):
        with pytest.raises(LaurentError, match="exponent beyond"):
            LaurentExpr(5, {(0, past, 0, 0, 0): 1})
        data["vertices"][3]["laurent"] = [[[0, past, 0, 0, 0], 1]]
        with pytest.raises(LaurentError, match="exponent beyond"):
            seed_from_dict(data)
