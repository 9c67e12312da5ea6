"""The README's examples run as written, and the names it cites exist."""

import ast
import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from clusterflag.cli import main, seed_from_dict, seed_to_dict
from clusterflag.flags import GrassmannianSeed
from clusterflag.quiver import MAX_EXPONENT, LaurentError, LaurentExpr

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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


def _bound_names() -> set[str]:
    """Every name the code under ``src/``, ``tests/`` and ``bench/`` binds:
    a module file, def, class, assigned name or attribute, argument, or
    string dict key."""
    names = set()
    for path in (ROOT / "src", ROOT / "tests", ROOT / "bench"):
        for source in path.rglob("*.py"):
            names.add(source.stem)
            for node in ast.walk(ast.parse(source.read_text(), str(source))):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names.add(node.name)
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                    names.add(node.attr)
                elif isinstance(node, ast.arg):
                    names.add(node.arg)
                elif isinstance(node, ast.Dict):
                    names.update(k.value for k in node.keys
                                 if isinstance(k, ast.Constant) and isinstance(k.value, str))
    return names


def test_readme_names_are_defined():
    """Each backticked name or call in README.md with a ``_`` or ``.`` in
    it names something the code binds, by its last dotted part; only the
    environment variable and the standard-library function are exempt."""
    spans = re.findall(r"`([^`\n]+)`", README.read_text())
    named = {
        m.group(1) for m in map(re.compile(r"([A-Za-z_][\w.]*)(\(.*\))?").fullmatch, spans)
        if m and ("_" in m.group(1) or "." in m.group(1))
    }
    assert len(named) > 25, "README.md lost its backticked names"
    bound = _bound_names()
    unbound = {name for name in named if name.rsplit(".", 1)[-1] not in bound}
    assert unbound == {"CLUSTERFLAG_SEED", "itertools.combinations"}, sorted(unbound)
