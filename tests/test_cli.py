"""Command line front end: construction, presets, verification, translation."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import sympy
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import clusterflag.cli as cli
from clusterflag.cli import main, seed_from_dict, seed_to_dict, seed_to_dot
from clusterflag.flags import FlagSeed, FlagType, GrassmannianSeed
from clusterflag.programs import MutationProgram, general_flag_program
from clusterflag.quiver import MAX_EXPONENT
from clusterflag.tableaux import one_column

from support import all_flag_types, seeds_equal


@pytest.fixture()
def runner():
    return CliRunner()


# -- serialization ------------------------------------------------------------


def test_seed_json_round_trip():
    for seed in (
        GrassmannianSeed(2, 5).seed,
        FlagSeed(FlagType((2, 4), 6)).seed,
        GrassmannianSeed(2, 4).seed.mutate(
            GrassmannianSeed(2, 4).seed.mutable_ids()[0]
        ),
    ):
        data = json.loads(json.dumps(seed_to_dict(seed)))
        back = seed_from_dict(data)
        ident = {v: v for v in seed.quiver.vertices}
        assert seeds_equal(seed, back, ident) == []
        for vid in seed.quiver.vertices:
            assert back.variables[vid].laurent == seed.variables[vid].laurent
        assert back.dictionary == seed.dictionary


# sha256 of the output of seed, mutate and run commands; the flag seeds are
# graded by several column heights (weight_rank >= 2), which the benchmark
# goldens never see.  The JSON snapshot format is pinned byte for byte.
_OUTPUT_DIGESTS = {
    "seed --flag 6,2,4": "9cc7e1232bbf4ea24a93bd98abd057e9c665fae799ae991c607c7e6b0aca7047",
    "seed --flag 7,1,3,5": "0aa4c293c19a2ee3c49e8f941c7e8d36a159c2b33482074141deec993fa36e18",
    "seed --gr 3,7": "613cece3ab7a2d15ba57925a1351898b4fcd58c8a01ba7bc8c98565feaa8c6dd",
    "mutate --flag 6,2,4 --at F{4}": "708103359bbf867554b123b0e666e7639b0623945630cb10600d0a6b6c5e7ed7",
    "mutate --flag 6,2,4 --at F{4},1,3,5,F{4}": "98e3ba8f20a19b5a60e61331a022ee595fefbe794c610214ae6ee851e672281e",
    "run --flag 7,2,4 --export json": "e3a01559ac8f14606d594632a1b25ff36e2e827437107eced1f4fb6a997a4090",
}


@pytest.mark.parametrize("command", list(_OUTPUT_DIGESTS))
def test_seed_json_output_is_pinned(runner, command):
    result = runner.invoke(main, command.split())
    assert result.exit_code == 0
    assert hashlib.sha256(result.output.encode()).hexdigest() == _OUTPUT_DIGESTS[command]


def test_every_flag_seed_through_n8_is_pinned():
    """One sha256 over the JSON snapshots of the flag seeds of all 246
    types with 3 <= n <= 8, in order: any change to a face's id, name,
    arrows or lift changes it."""
    flags = [flag for flag in all_flag_types(8, 7) if flag.n >= 3]
    assert len(flags) == 246
    digest = hashlib.sha256()
    for flag in flags:
        digest.update(json.dumps(seed_to_dict(FlagSeed(flag).seed)).encode())
    assert digest.hexdigest() == "ead9949aba1bc5573ab6005da670bfa274835f79dd2df7e7357af9a79448cdaa"


def test_seed_from_dict_rejects_unknown_schema():
    with pytest.raises(ValueError, match="schema"):
        seed_from_dict({"schema": "nope"})


def test_dot_deterministic_and_marks_frozen():
    seed = GrassmannianSeed(2, 5).seed
    a = seed_to_dot(seed)
    b = seed_to_dot(GrassmannianSeed(2, 5).seed)
    assert a == b
    assert a.startswith("digraph seed {")
    assert "shape=box" in a       # frozen vertices
    assert "shape=ellipse" in a   # mutable vertices
    assert a.count("->") == len(seed.quiver.arrows)


# -- seed / mutate / export ----------------------------------------------------


def test_seed_command_json(runner):
    result = runner.invoke(main, ["seed", "--gr", "2,4"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["schema"] == "clusterflag-seed/1"
    assert len(data["vertices"]) == 5


def test_seed_command_flag_dot(runner, tmp_path):
    out = tmp_path / "seed.dot"
    result = runner.invoke(
        main, ["seed", "--flag", "5,2,4", "--format", "dot", "--output", str(out)]
    )
    assert result.exit_code == 0
    assert out.read_text().startswith("digraph seed {")


def test_seed_command_needs_exactly_one_source(runner):
    assert runner.invoke(main, ["seed"]).exit_code == 2
    assert runner.invoke(main, ["seed", "--gr", "2,4", "--flag", "5,2,4"]).exit_code == 2
    assert runner.invoke(main, ["seed", "--gr", "nope"]).exit_code == 2
    assert runner.invoke(main, ["seed", "--flag", "5,4,2"]).exit_code == 2


def test_mutate_command(runner):
    result = runner.invoke(main, ["mutate", "--gr", "2,4", "--at", "r2c2"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    mutated = seed_from_dict(data)
    gr = GrassmannianSeed(2, 4)
    vid = gr.seed.vertex_by_name("r2c2")
    assert mutated.variables[vid].tableau == one_column([2, 4])


def test_mutate_rejects_frozen_vertex(runner):
    result = runner.invoke(main, ["mutate", "--gr", "2,4", "--at", "r1c1"])
    assert result.exit_code == 1
    assert "failed" in result.output


def test_mutate_unknown_vertex_is_usage_error(runner):
    for at in ("99", "-1", "--1", "nosuch", "r2c2,99"):
        result = runner.invoke(main, ["mutate", "--gr", "2,4", "--at", at])
        assert result.exit_code == 2, at
        assert "failed" not in result.output, at


def test_mutate_by_id_round_trip(runner):
    gr = GrassmannianSeed(2, 4)
    vid = gr.seed.mutable_ids()[0]
    twice = "%d,%d" % (vid, vid)
    result = runner.invoke(main, ["mutate", "--gr", "2,4", "--at", twice])
    assert result.exit_code == 0
    back = seed_from_dict(json.loads(result.output))
    ident = {v: v for v in gr.seed.quiver.vertices}
    assert seeds_equal(gr.seed, back, ident) == []


def test_export_from_seed_file(runner, tmp_path):
    seed_path = tmp_path / "s.json"
    result = runner.invoke(main, ["seed", "--gr", "2,5", "--output", str(seed_path)])
    assert result.exit_code == 0
    a = runner.invoke(main, ["export", "--seed-file", str(seed_path)])
    b = runner.invoke(main, ["export", "--seed-file", str(seed_path)])
    assert a.exit_code == 0
    assert a.output == b.output
    assert a.output.startswith("digraph seed {")


def test_export_unreadable_file(runner, tmp_path):
    missing = tmp_path / "missing.json"
    assert runner.invoke(main, ["export", "--seed-file", str(missing)]).exit_code == 2


def test_malformed_seed_file_is_usage_error(runner, tmp_path):
    data = seed_to_dict(GrassmannianSeed(2, 4).seed)
    data["vertices"] = 5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    result = runner.invoke(main, ["export", "--seed-file", str(path)])
    assert result.exit_code == 2
    assert "cannot read seed file" in result.output


def test_seed_file_with_mismatched_nvars_is_usage_error(runner, tmp_path):
    data = seed_to_dict(GrassmannianSeed(2, 5).seed)
    assert data["nvars"] == 7
    short = json.loads(json.dumps(data))
    for v in short["vertices"]:
        v["laurent"] = [[exps[:-1], coeff] for exps, coeff in v["laurent"]]
    missing = json.loads(json.dumps(data))
    missing["dictionary"].pop()
    for name, bad in (("short", short), ("missing", missing)):
        path = tmp_path / ("%s.json" % name)
        path.write_text(json.dumps(bad))
        result = runner.invoke(main, ["mutate", "--seed-file", str(path), "--at", "3"])
        assert result.exit_code == 2, name
        assert isinstance(result.exception, SystemExit), name
        assert "cannot read seed file" in result.output, name


def _seed_file_exits(runner, path, at):
    """Exit codes of ``export`` and ``mutate --at`` on one seed file; each
    must end in ``sys.exit``, never in an uncaught exception."""
    codes = []
    for args in (["export"], ["mutate", "--at", str(at)]):
        result = runner.invoke(main, [*args, "--seed-file", str(path)])
        assert isinstance(result.exception, (SystemExit, type(None))), result.exception
        codes.append(result.exit_code)
    return codes


def test_seed_file_with_bad_structure_is_usage_error(runner, tmp_path):
    gr = GrassmannianSeed(2, 4)
    data = seed_to_dict(gr.seed)
    duplicated = json.loads(json.dumps(data))
    duplicated["vertices"].append(dict(duplicated["vertices"][0], name="copy"))
    bad_rank = dict(data, weight_rank="q")
    long_weight = json.loads(json.dumps(data))
    long_weight["vertices"][0]["weight"].append(0)
    same_name = json.loads(json.dumps(data))
    same_name["vertices"][0]["name"] = same_name["vertices"][1]["name"]
    for name, bad in (
        ("list", []),
        ("string", "x"),
        ("dup", duplicated),
        ("rank", bad_rank),
        ("weight", long_weight),
        ("name", same_name),
    ):
        path = tmp_path / ("%s.json" % name)
        path.write_text(json.dumps(bad))
        assert _seed_file_exits(runner, path, gr.vertex_at(2, 2)) == [2, 2], name
        assert "cannot read seed file" in runner.invoke(
            main, ["export", "--seed-file", str(path)]
        ).output, name


def _bad_value(data, case):
    """A Gr(2,4) snapshot with one well-typed but invalid value."""
    if case == "index":             # unsorted, and past the ambient size
        data["dictionary"][0]["terms"][0][0][0] = [9, 1]
    elif case == "multiplicity":    # would quietly reverse the arrow 3 -> 0
        data["arrows"] = [a for a in data["arrows"] if a[:2] != [3, 0]] + [[0, 3, -2]]
    elif case == "repeated":        # would be summed into a double arrow
        data["arrows"].append(data["arrows"][0])
    elif case == "frozen":          # r1c1 -> r1c2 would be dropped
        data["arrows"].append([0, 1, 5])
    elif case == "reversed":        # the same pair the other way round
        u, w, m = data["arrows"][0]
        data["arrows"].append([w, u, m])
    elif case == "repeated-exponent":   # would load as 5 x, the last copy
        unit = next(v for v in data["vertices"] if v["name"] == "unit")
        unit["laurent"].append([unit["laurent"][0][0], 5])
    elif case == "repeated-monomial":   # one monomial, its factors in either order
        data["dictionary"][0]["terms"] += [[[[1, 2], [3, 4]], 1], [[[3, 4], [1, 2]], 1]]
    elif case == "zero-variable":       # no terms: the variable 0
        next(v for v in data["vertices"] if v["name"] == "r2c2")["laurent"] = []
    elif case == "zero-coefficient":
        r2c2 = next(v for v in data["vertices"] if v["name"] == "r2c2")
        r2c2["laurent"].append([[0] * data["nvars"], 0])
    else:                           # a tableau that disagrees with the weights
        name, rows = {
            "height": ("unit", [[1]]),              # a second column height
            "columns": ("r2c2", [[1, 2], [3, 4]]),  # two columns, weight [1]
            "empty": ("r2c2", []),                  # no column, weight [1]
        }[case]
        next(v for v in data["vertices"] if v["name"] == name)["tableau"] = rows
    return data


@pytest.mark.parametrize(
    "case",
    [
        "index", "multiplicity", "repeated", "frozen", "reversed", "height", "columns", "empty",
        "repeated-exponent", "repeated-monomial", "zero-variable", "zero-coefficient",
    ],
)
def test_seed_file_with_bad_values_is_usage_error(runner, tmp_path, case):
    gr = GrassmannianSeed(2, 4)
    data = seed_to_dict(gr.seed)
    assert [3, 0, 1] in data["arrows"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_bad_value(data, case)))
    assert _seed_file_exits(runner, path, gr.vertex_at(2, 2)) == [2, 2]
    result = runner.invoke(main, ["export", "--seed-file", str(path)])
    assert "cannot read seed file" in result.output


def test_seed_file_with_huge_tableau_entry_mutates_promptly(tmp_path):
    """A tableau entry of 10**30 costs the dominance comparison no more than
    a small one.  The command runs in a subprocess, so that a regression
    fails at the timeout instead of hanging the suite."""
    data = seed_to_dict(GrassmannianSeed(2, 4).seed)
    next(v for v in data["vertices"] if v["name"] == "unit")["tableau"] = [[1], [10**30]]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-m", "clusterflag.cli", "mutate", "--seed-file", str(path), "--at", "r2c2"],
        capture_output=True, text=True, timeout=30, env=env,
    )
    assert result.returncode == 0, result.stderr
    r2c2 = next(v for v in json.loads(result.stdout)["vertices"] if v["name"] == "r2c2")
    assert r2c2["tableau"] == [[2], [4]]


def _oversized_seed_file(case) -> str:
    """A file too big to load: nested past the decoder's recursion limit,
    or a Gr(2,4) snapshot with a huge ``nvars`` or arrow multiplicity."""
    if case == "nesting":
        return "[" * 200_000
    data = seed_to_dict(GrassmannianSeed(2, 4).seed)
    if case == "nvars":
        data["nvars"] = 2**63
    else:
        data["arrows"] = [[u, w, case if [u, w] == [3, 0] else m] for u, w, m in data["arrows"]]
    return json.dumps(data)


@pytest.mark.parametrize("case", ["nesting", "nvars", MAX_EXPONENT + 1, 10**30])
def test_oversized_seed_file_is_usage_error(runner, tmp_path, case):
    """Checked with ``export`` alone: ``mutate`` through a huge arrow would
    expand its neighbour list to that many references before failing."""
    path = tmp_path / "big.json"
    path.write_text(_oversized_seed_file(case))
    result = runner.invoke(main, ["export", "--seed-file", str(path)])
    assert result.exit_code == 2, result.exception
    assert "cannot read seed file" in result.output


def test_seed_file_multiplicity_bound_is_inclusive(runner, tmp_path):
    path = tmp_path / "bound.json"
    path.write_text(_oversized_seed_file(MAX_EXPONENT))
    result = runner.invoke(main, ["export", "--seed-file", str(path), "--format", "json"])
    assert result.exit_code == 0
    assert [3, 0, MAX_EXPONENT] in json.loads(result.output)["arrows"]


def _json_paths(node, path=()):
    """Every position in a JSON tree, as a key path from the root."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _json_paths(child, path + (key,))


_DELETE = object()


def _set_at(data, path, value):
    """``data`` with the node at ``path`` replaced by ``value``, or deleted
    when ``value`` is ``_DELETE``."""
    if not path:
        return value
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return data


_FUZZ_GR = GrassmannianSeed(2, 4)
_FUZZ_SEED = seed_to_dict(_FUZZ_GR.seed.mutate(_FUZZ_GR.vertex_at(2, 2)))
_WRONG_TYPES = (None, "x", 1.5, 7, True, [], {})


def _schema_site(path):
    """The place of a position in the schema: an index into a list of
    like items (vertices, arrows, exponents, ...) reads as None, an index
    into a mixed pair such as [exponents, coefficient] stays."""
    node, site = _FUZZ_SEED, []
    for key in path:
        mixed = isinstance(node, list) and len({type(x) for x in node}) > 1
        site.append(None if isinstance(key, int) and not mixed else key)
        node = node[key]
    return tuple(site)


# positions grouped by site, so that a rare field such as "weight_rank" is
# drawn as often as a Laurent exponent
_FUZZ_SITES: dict[tuple, list[tuple]] = {}
for _path in _json_paths(_FUZZ_SEED):
    _FUZZ_SITES.setdefault(_schema_site(_path), []).append(_path)


@st.composite
def malformed_seeds(draw):
    """A valid seed snapshot with one structural fault: a deleted key, a
    value of the wrong JSON type, or a repeated vertex id."""
    data = json.loads(json.dumps(_FUZZ_SEED))
    fault = draw(st.sampled_from(["delete", "retype", "duplicate"]))
    if fault == "duplicate":
        n = len(data["vertices"])
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            data["vertices"].append(json.loads(json.dumps(data["vertices"][i])))
        else:
            data["vertices"][j]["id"] = data["vertices"][i]["id"]
        return data
    sites = [s for s in _FUZZ_SITES if fault == "retype" or (s and isinstance(s[-1], str))]
    path = draw(st.sampled_from(_FUZZ_SITES[draw(st.sampled_from(sites))]))
    if fault == "delete":
        return _set_at(data, path, _DELETE)
    node = data
    for key in path:
        node = node[key]
    value = draw(st.sampled_from([v for v in _WRONG_TYPES if type(v) is not type(node)]))
    return _set_at(data, path, value)


@settings(max_examples=300, deadline=None)
@given(malformed_seeds())
def test_seed_file_schema_fuzz(data):
    """Every fault makes the snapshot malformed, so both commands must stop
    with a usage error, never a traceback or a verification failure."""
    runner = CliRunner()
    with runner.isolated_filesystem():
        Path("seed.json").write_text(json.dumps(data))
        assert _seed_file_exits(runner, "seed.json", _FUZZ_GR.vertex_at(2, 2)) == [2, 2]


def test_mutate_inexact_exchange_is_clean_error(runner, tmp_path):
    gr = GrassmannianSeed(2, 4)
    vid = gr.vertex_at(2, 2)
    data = seed_to_dict(gr.seed)
    for v in data["vertices"]:
        if v["id"] == vid:
            v["laurent"] = [[exps, 2 * coeff] for exps, coeff in v["laurent"]]
    path = tmp_path / "inexact.json"
    path.write_text(json.dumps(data))
    result = runner.invoke(main, ["mutate", "--seed-file", str(path), "--at", str(vid)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "inexact Laurent division" in result.output


def test_mutate_through_wide_laurent_terms(runner, tmp_path):
    """A neighbour of r2c2 whose expansion reaches exponents +-40 packs with
    16-bit fields; the exchange through it meets narrow neighbours."""
    data = seed_to_dict(GrassmannianSeed(2, 4).seed)
    by_name = {v["name"]: v for v in data["vertices"]}
    by_name["r1c2"]["laurent"] = [[[0, 0, 0, 0, -40], 2], [[0, 40, 0, 0, -1], 1]]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(data))
    result = runner.invoke(main, ["mutate", "--seed-file", str(path), "--at", "r2c2"])
    assert result.exit_code == 0, result.output

    xs = sympy.symbols("x0:%d" % data["nvars"])

    def expansion(vertex):
        return sympy.Add(*(c * sympy.Mul(*(x**e for x, e in zip(xs, exps))) for exps, c in vertex["laurent"]))

    ids = {v["id"]: v for v in data["vertices"]}
    vid = by_name["r2c2"]["id"]
    ins = sympy.Mul(*(expansion(ids[u]) ** m for u, w, m in data["arrows"] if w == vid))
    outs = sympy.Mul(*(expansion(ids[w]) ** m for u, w, m in data["arrows"] if u == vid))
    expect = (ins + outs) / expansion(by_name["r2c2"])
    out = json.loads(result.output)
    new = next(v for v in out["vertices"] if v["name"] == "r2c2")
    assert sympy.expand(expansion(new) - expect) == 0
    assert max(abs(e) for exps, _ in new["laurent"] for e in exps) == 40

    mutated = tmp_path / "mutated.json"
    mutated.write_text(result.output)
    again = runner.invoke(main, ["export", "--seed-file", str(mutated), "--format", "json"])
    assert again.exit_code == 0
    assert again.output == result.output


# -- run ---------------------------------------------------------------------------


def test_run_preset_mt(runner):
    expected = (
        "flag (2,4; 6) in Gr(4; 8)\n"
        "mutations: (11) (7) (11)\n"
        "freezes:   (7)\n"
        "deleted:   (3) (4) (15)\n"
        "kept 14 vertices\n"
    )
    result = runner.invoke(main, ["run", "--preset", "mt", "--n", "6"])
    assert result.exit_code == 0
    assert result.output == expected
    # the README shows this run verbatim
    readme = Path(__file__).resolve().parent.parent / "README.md"
    assert "```\n%s```" % expected in readme.read_text()


def test_run_preset_sh_export_dot(runner, tmp_path):
    out = tmp_path / "endpoint.dot"
    result = runner.invoke(
        main,
        ["run", "--preset", "sh", "--n", "6", "--export", "dot", "--output", str(out)],
    )
    assert result.exit_code == 0
    text = out.read_text()
    assert text.startswith("digraph seed {")


def test_run_flag_without_preset(runner):
    result = runner.invoke(main, ["run", "--flag", "6,2,3"])
    assert result.exit_code == 0
    assert "mutations: " in result.output


def test_run_usage_errors(runner):
    assert runner.invoke(main, ["run"]).exit_code == 2
    assert runner.invoke(main, ["run", "--preset", "mt"]).exit_code == 2
    assert runner.invoke(main, ["run", "--preset", "mt", "--n", "4"]).exit_code == 2
    assert (
        runner.invoke(main, ["run", "--preset", "mt", "--n", "6", "--flag", "6,2,4"]).exit_code
        == 2
    )
    for args in (
        ["--flag", "6,2,4", "--n", "6"],          # --n belongs to --preset
        ["--preset", "mt", "--n", "6", "--output", "x.dot"],    # --output needs --export
    ):
        result = runner.invoke(main, ["run", *args])
        assert result.exit_code == 2, args
        assert isinstance(result.exception, SystemExit), args


def test_run_reports_why_restriction_failed(runner, monkeypatch):
    def skip_first_freeze(flag):
        program = general_flag_program(flag)
        return MutationProgram(flag, program.mutations, program.freezes[1:])

    monkeypatch.setattr(cli, "general_flag_program", skip_first_freeze)
    result = runner.invoke(main, ["run", "--flag", "8,2,5"])
    assert result.exit_code == 1
    assert "did not restrict to the flag seed: illegal restriction: " in result.output


def test_unwritable_output_is_usage_error(runner, tmp_path):
    out = str(tmp_path / "missing" / "out.txt")
    for args in (
        ["seed", "--gr", "2,4"],
        ["mutate", "--gr", "2,4", "--at", "r2c2"],
        ["run", "--preset", "mt", "--n", "6", "--export", "json"],
        ["export", "--gr", "2,4"],
        ["verify", "--flag", "6,2,4", "--trials", "2"],
    ):
        result = runner.invoke(main, [*args, "--output", out])
        assert result.exit_code == 2, args
        assert isinstance(result.exception, SystemExit), args
        assert "cannot write" in result.output, args


# -- verify -------------------------------------------------------------------------


def test_verify_passes_and_writes_report(runner, tmp_path):
    report_path = tmp_path / "report.json"
    result = runner.invoke(
        main,
        ["verify", "--flag", "6,2,4", "--trials", "4", "--output", str(report_path)],
    )
    assert result.exit_code == 0
    assert "[ok]" in result.output
    data = json.loads(report_path.read_text())
    assert data["schema"] == "clusterflag-report/1"
    assert data["passed"] is True
    assert data["mutations"] == [11, 7, 11]


def test_verify_failure_exit_code(runner, monkeypatch):
    from clusterflag.programs import Report

    def fake_verify(flag, trials, prime, master_seed):
        rep = Report(flag, prime=prime, trials=trials, master_seed=master_seed)
        rep.add("synthetic check", False, "forced for the exit-code test")
        return rep

    monkeypatch.setattr(cli, "verify_theorem", fake_verify)
    result = runner.invoke(main, ["verify", "--flag", "6,2,4"])
    assert result.exit_code == 1
    assert "FAIL" in result.output


def test_verify_env_seed(runner, monkeypatch):
    captured = {}

    def fake_verify(flag, trials, prime, master_seed):
        from clusterflag.programs import Report

        captured["seed"] = master_seed
        return Report(flag, prime=prime, trials=trials, master_seed=master_seed)

    monkeypatch.setattr(cli, "verify_theorem", fake_verify)
    monkeypatch.setenv("CLUSTERFLAG_SEED", "99")
    result = runner.invoke(main, ["verify", "--flag", "5,2,4"])
    assert result.exit_code == 0
    assert captured["seed"] == 99


def test_verify_usage_error(runner):
    assert runner.invoke(main, ["verify"]).exit_code == 2
    assert runner.invoke(main, ["verify", "--flag", "bogus"]).exit_code == 2


def test_verify_rejects_vacuous_or_unsound_checks(runner):
    for args in (
        ["--trials", "0"],
        ["--trials", "-1"],
        ["--prime", "0"],
        ["--prime", "4"],
        ["--prime", "1000001"],
        ["--prime", str((1 << 89) - 1)],    # prime, but not below 2^64
        ["--prime", "2"],                   # primes too small for a sound check
        ["--prime", "3"],
        ["--prime", "101"],
        ["--prime", str((1 << 31) - 1)],
    ):
        result = runner.invoke(main, ["verify", "--flag", "6,2,4", *args])
        assert result.exit_code == 2, args
        assert isinstance(result.exception, SystemExit), args


# -- translate ------------------------------------------------------------------------


def test_translate_examples(runner):
    result = runner.invoke(main, ["translate", "--sh", "5", "[12]"])
    assert result.exit_code == 0
    assert result.output.strip() == "+P_{345}"
    result = runner.invoke(main, ["translate", "--sh", "5", "<13>"])
    assert result.output.strip() == "+P_{13}"
    result = runner.invoke(main, ["translate", "--sh", "5", "[13]"])
    assert result.output.strip() == "-P_{245}"
    result = runner.invoke(main, ["translate", "--mt", "6", "<1234>"])
    assert result.output.strip() == "+P_{1234}"
    result = runner.invoke(main, ["translate", "--sh", "11", "<1,11>"])
    assert result.output.strip() == "+P_{1,11}"


def test_translate_usage_errors(runner):
    assert runner.invoke(main, ["translate", "[12]"]).exit_code == 2
    assert runner.invoke(main, ["translate", "--sh", "5", "--mt", "6", "[12]"]).exit_code == 2
    assert runner.invoke(main, ["translate", "--sh", "5", "12"]).exit_code == 2
    assert runner.invoke(main, ["translate", "--sh", "5", "[123]"]).exit_code == 2
    assert runner.invoke(main, ["translate", "--mt", "6", "[12]"]).exit_code == 2
    assert runner.invoke(main, ["translate", "--sh", "5", "[19]"]).exit_code == 2
    for args in (
        ["--sh", "5", "<1a>"],
        ["--sh", "5", "<1,>"],
        ["--mt", "6", "<1,2,x>"],
        ["--mt", "6", "<1,1>"],
        ["--mt", "6", "<2,1>"],
    ):
        result = runner.invoke(main, ["translate", *args])
        assert result.exit_code == 2, args
        assert isinstance(result.exception, SystemExit), args
