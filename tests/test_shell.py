"""Tests for the interactive shell (driven through StringIO)."""

import io

import pytest

from repro import GraphDatabase
from repro.db.snapshot import save_snapshot
from repro.shell import Shell, main


def run_shell(script: str, db=None) -> str:
    stdout = io.StringIO()
    shell = Shell(db=db, stdin=io.StringIO(script), stdout=stdout)
    shell.run()
    return stdout.getvalue()


def test_create_and_match():
    output = run_shell(
        "CREATE (a:P {name: 'x'});\n"
        "MATCH (n:P) RETURN n.name AS name;\n"
    )
    assert "name" in output
    assert "x" in output
    assert "(1 row," in output


def test_multiline_statement():
    output = run_shell(
        "MATCH (n)\nRETURN n;\n",
    )
    assert "(0 rows," in output


def test_syntax_error_is_reported_not_raised():
    output = run_shell("MATCH (;\n")
    assert "error:" in output


def test_help_and_unknown_command():
    output = run_shell(":help\n:frobnicate\n")
    assert ":create-index" in output
    assert "unknown command" in output


def test_quit_stops_processing():
    output = run_shell(":quit\nCREATE (a:P);\n")
    assert "(1 row" not in output


def test_explain_toggle():
    output = run_shell(
        ":explain on\nMATCH (n:P) RETURN n;\n:explain off\n"
    )
    assert "explain enabled" in output
    assert "NodeByLabelScan" in output
    assert "explain disabled" in output
    assert "usage" in run_shell(":explain sideways\n")


def test_index_lifecycle_commands():
    db = GraphDatabase()
    a, b = db.create_node(["A"]), db.create_node(["B"])
    db.create_relationship(a, b, "X")
    output = run_shell(
        ":indexes\n"
        ":create-index ix (:A)-[:X]->(:B)\n"
        ":indexes\n"
        ":drop-index ix\n"
        ":indexes\n",
        db=db,
    )
    assert "no path indexes" in output
    assert "created 'ix': 1 entries" in output
    assert "(:A)-[:X]->(:B)" in output
    assert "dropped 'ix'" in output


def test_stats_command():
    db = GraphDatabase()
    db.create_node()
    output = run_shell(":stats\n", db=db)
    assert "nodes: 1" in output


def test_metrics_command_shows_both_plan_caches():
    db = GraphDatabase()
    for _ in range(10):  # enough data that two more paths are no drift
        db.create_relationship(db.create_node(["A"]), db.create_node(["B"]), "X")
    output = run_shell(
        ":create-index ab (:A)-[:X]->(:B)\n"
        "CREATE (:A)-[:X]->(:B);\n"
        "CREATE (:A)-[:X]->(:B);\n"
        ":metrics\n",
        db=db,
    )
    assert "\nplan cache: 1 hits, 1 misses, 0 invalidations, 0 evictions, 1/128" in output
    # Algorithm 2 planned once, Algorithm 1 once, and the second commit hit.
    assert (
        "\nmaintenance plan cache: 1 hits, 2 misses, 0 invalidations, "
        "0 evictions, 2/128 entries"
    ) in output


def test_save_and_load_commands(tmp_path):
    db = GraphDatabase()
    db.create_node(["P"])
    target = tmp_path / "snap"
    output = run_shell(f":save {target}\n", db=db)
    assert "snapshot written" in output
    output = run_shell(
        f":load {target}\nMATCH (n:P) RETURN n;\n"
    )
    assert "(1 row," in output


def test_trailing_statement_without_semicolon_runs():
    output = run_shell("MATCH (n) RETURN n")
    assert "(0 rows," in output


def test_main_execute_mode(tmp_path, capsys):
    db = GraphDatabase()
    db.create_node(["P"])
    snap = tmp_path / "snap"
    save_snapshot(db, snap)
    exit_code = main(["--snapshot", str(snap), "--execute", "MATCH (n:P) RETURN n"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "(1 row," in captured.out


def test_main_execute_on_missing_snapshot_starts_empty(tmp_path, capsys):
    exit_code = main(
        ["--snapshot", str(tmp_path / "nope"), "--execute", "MATCH (n) RETURN n"]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "(0 rows," in captured.out
