"""The `pq` command line: argument parsing, config precedence, exit codes."""

import json

import pytest

from helpers import read_csv
from pilotq.cli import TABLES, main, parse_int_list, resolve_options
from pilotq.errors import ValidationError


def run_cli(*argv) -> int:
    try:
        return main(list(argv))
    except SystemExit as exc:
        return int(exc.code)


# --- parse_int_list -------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec,want",
    [
        (7, [7]),
        ("7", [7]),
        ("1,4,8", [1, 4, 8]),
        (" 2 , 3 ", [2, 3]),
        ("2:6", [2, 3, 4, 5, 6]),
        ("2:16:2", [2, 4, 6, 8, 10, 12, 14, 16]),
        ("5:5", [5]),
        ([1, 2], [1, 2]),
        ((3, "4"), [3, 4]),
    ],
)
def test_int_list_forms(spec, want):
    assert parse_int_list(spec) == want


@pytest.mark.parametrize("spec", ["1:2:3:4", "5:2", "2:10:0", "a,b", "1;2"])
def test_int_list_rejects_malformed_specs(spec):
    with pytest.raises(ValidationError):
        parse_int_list(spec)


def test_cfg_precedence_is_flag_config_default():
    table = TABLES["throughput"]
    config = {"workers": 3}
    assert resolve_options(table, {"workers": "9"}, config) == {"workers": 9}
    assert resolve_options(table, {"workers": None}, config) == {"workers": 3}
    assert resolve_options(table, {}, {}) == {}  # unset keys leave the runner's default


# --- exit codes ------------------------------------------------------------------------


def test_success_returns_zero(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run_cli("throughput", "--tasks", "4", "--workers", "2", "--out", "tp.csv")
    assert code == 0
    rows = read_csv(tmp_path / "tp.csv")
    assert rows[0]["done"] == "4"
    assert (tmp_path / ".pq-session.json").is_file()


def test_validation_failures_exit_one(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli("throughput", "--tasks", "0") == 1
    assert "validation error" in capsys.readouterr().err
    assert run_cli("circuits", "--qubits", "nope") == 1
    assert run_cli("cut", "--sizes", "4:2") == 1


def test_unknown_subcommand_exits_one(capsys):
    assert run_cli("frobnicate") == 1
    assert "error" in capsys.readouterr().err


def test_missing_session_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli("status", "--session", "nothing-here.json") == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("content", ['{"command": "throu', "[1, 2]"], ids=["truncated", "list"])
def test_unreadable_session_exits_two(tmp_path, monkeypatch, capsys, content):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text(content)
    assert run_cli("status", "--session", "bad.json") == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_bad_config_file_exits_one(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "broken.json").write_text("[1, 2]")
    assert run_cli("throughput", "--config", "broken.json") == 1
    assert run_cli("throughput", "--config", "absent.json") == 1


# --- config file behaviour --------------------------------------------------------------


def test_config_supplies_defaults_and_flags_override(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(
        json.dumps({"tasks": "3", "workers": 2, "out": "from-config.csv"})
    )
    assert run_cli("throughput", "--config", "cfg.json", "--tasks", "5") == 0
    rows = read_csv(tmp_path / "from-config.csv")
    assert [r["tasks"] for r in rows] == ["5"]  # flag wins
    assert rows[0]["workers"] == "2"  # config fills in the rest


def test_status_prints_last_session(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli("throughput", "--tasks", "3", "--workers", "2", "--out", "tp.csv") == 0
    capsys.readouterr()
    assert run_cli("status") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "throughput"
    assert payload["source"] == ".pq-session.json"
    assert payload["metrics"]["tasks_done"] == 3


def test_gradients_no_fd_leaves_check_column_empty(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run_cli("gradients", "--qubits", "2", "--layers", "1", "--no-fd", "--out", "g.csv")
    assert code == 0
    (row,) = read_csv(tmp_path / "g.csv")
    assert row["status"] == "ok"
    assert row["grad_fd_max_rel_err"] == ""


def test_circuits_config_backends_may_be_a_list(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"backends": ["local"]}))
    assert run_cli("circuits", "--qubits", "2", "--count", "1", "--config", "cfg.json") == 0
    assert {row["backend"] for row in read_csv(tmp_path / "circuits.csv")} == {"local"}


def test_empty_task_spec_is_a_validation_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli("throughput", "--tasks", "") == 1


def test_cut_config_max_width_may_be_a_string(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"max_width": "3"}))
    args = ("cut", "--sizes", "2,2", "--workers", "1", "--task-latency", "0")
    assert run_cli(*args, "--config", "cfg.json", "--out", "cfg.csv") == 0
    assert run_cli(*args, "--max-width", "3", "--out", "flag.csv") == 0
    assert read_csv(tmp_path / "cfg.csv")[1]["num_cuts"] == read_csv(tmp_path / "flag.csv")[1]["num_cuts"]


@pytest.mark.parametrize(
    "command,config",
    [
        ("throughput", {"workers": "two"}),
        ("circuits", {"qpu_latency": "slow"}),
        ("cut", {"workers": ["one"]}),
        ("vqc", {"epochs": "many"}),
        ("circuits", {"backends": 5}),
        ("gradients", {"fd": "false"}),
        ("throughput", {"out": 5}),
        ("throughput", {"log": 7}),
        ("throughput", {"tasks": [True, 2]}),
        ("cut", {"reps": 1.7}),
        ("throughput", {"workers": 2.9}),
        ("circuits", {"shots": True}),
        ("cut", {"max_width": 2.5}),
        ("throughput", {"worker": 2}),
        ("gradients", {"log": "g.jsonl"}),
    ],
)
def test_non_numeric_config_value_exits_one(tmp_path, monkeypatch, capsys, command, config):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert run_cli(command, "--config", "cfg.json") == 1
    assert capsys.readouterr().err.startswith("validation error: ")


@pytest.mark.parametrize(
    "argv,prefix",
    [
        (("vqc", "--lr", "nan"), "validation error: "),
        (("circuits", "--qubits", "2", "--count", "1", "--backends", "qpu_sim",
          "--qpu-latency", "inf"), "validation error: "),
        (("cut", "--sizes", "2,2", "--workers", "1", "--task-latency", "nan"), "validation error: "),
        (("gradients", "--seed", "-1"), "validation error: "),
        (("cut", "--seed", "-1"), "validation error: "),
        (("gradients", "--log", "g.jsonl"), "error: "),
        (("throughput", "--tasks", "4,4", "--workers", "2"), "validation error: "),
    ],
)
def test_bad_flag_value_exits_one(tmp_path, monkeypatch, capsys, argv, prefix):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err.startswith(prefix)


@pytest.mark.parametrize("command", sorted(TABLES))
def test_help_lists_every_table_key_as_a_flag(capsys, command):
    assert run_cli(command, "--help") == 0
    out = capsys.readouterr().out
    for key, *_ in TABLES[command]:
        assert "--" + key.replace("_", "-") in out
