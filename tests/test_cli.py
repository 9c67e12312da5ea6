"""Command line front end: construction, presets, verification, translation."""

import json

import pytest
from click.testing import CliRunner

import clusterflag.cli as cli
from clusterflag.cli import main, seed_from_dict, seed_to_dict, seed_to_dot
from clusterflag.flags import FlagSeed, FlagType, GrassmannianSeed
from clusterflag.quiver import seeds_equal
from clusterflag.tableaux import one_column


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


# -- run ---------------------------------------------------------------------------


def test_run_preset_mt(runner):
    result = runner.invoke(main, ["run", "--preset", "mt", "--n", "6"])
    assert result.exit_code == 0
    assert "mutations: (11) (7) (11)" in result.output
    assert "freezes:   (7)" in result.output
    assert "deleted:   (3) (4) (15)" in result.output


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


def test_translate_usage_errors(runner):
    assert runner.invoke(main, ["translate", "[12]"]).exit_code == 2
    assert runner.invoke(main, ["translate", "--sh", "5", "--mt", "6", "[12]"]).exit_code == 2
    assert runner.invoke(main, ["translate", "--sh", "5", "12"]).exit_code == 2
    assert runner.invoke(main, ["translate", "--sh", "5", "[123]"]).exit_code == 2
    assert runner.invoke(main, ["translate", "--mt", "6", "[12]"]).exit_code == 2
    assert runner.invoke(main, ["translate", "--sh", "5", "[19]"]).exit_code == 2
