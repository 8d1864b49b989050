"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import build_parser, main
from repro.measurement.export import save_dataset
from tests.helpers import make_client, make_dataset


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_catalog_command(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "Akamai" in out
    assert "Bing CDN (measured)" in out
    assert "anycast" in out


def test_catalog_custom_bing_count(capsys):
    main(["catalog", "--bing-locations", "99"])
    out = capsys.readouterr().out
    assert "   99" in out


def test_report_command_to_file(tmp_path, capsys):
    out_file = tmp_path / "report.txt"
    code = main([
        "report", "--prefixes", "60", "--days", "2", "--seed", "5",
        "--out", str(out_file),
    ])
    assert code == 0
    text = out_file.read_text()
    assert "Fig 3" in text
    assert "Fig 9" in text
    assert "wrote report" in capsys.readouterr().out


def test_failover_command(capsys):
    code = main([
        "failover", "fe-lon", "--prefixes", "60", "--days", "1",
        "--seed", "5",
    ])
    assert code == 0
    assert "Withdrawal cascade" in capsys.readouterr().out


def test_failover_unknown_frontend(capsys):
    code = main([
        "failover", "fe-atlantis", "--prefixes", "60", "--days", "1",
        "--seed", "5",
    ])
    assert code == 2
    assert "unknown front-end" in capsys.readouterr().err


def test_run_and_analyze_round_trip(tmp_path, capsys):
    dataset_path = str(tmp_path / "ds.json")
    assert main([
        "run", "--prefixes", "50", "--days", "3", "--seed", "9",
        dataset_path,
    ]) == 0
    assert "campaign complete" in capsys.readouterr().out

    assert main(["analyze", dataset_path, "--figures", "fig3", "fig5"]) == 0
    out = capsys.readouterr().out
    assert "Fig 3" in out
    assert "Fig 5" in out


def test_analyze_all_default(tmp_path, capsys):
    dataset_path = str(tmp_path / "ds.json")
    main(["run", "--prefixes", "50", "--days", "3", "--seed", "9", dataset_path])
    capsys.readouterr()
    assert main(["analyze", dataset_path]) == 0
    out = capsys.readouterr().out
    for marker in ("Fig 3", "Fig 5", "Fig 6", "Fig 9"):
        assert marker in out


def test_analyze_unknown_figure(tmp_path, capsys):
    dataset_path = str(tmp_path / "ds.json")
    main(["run", "--prefixes", "50", "--days", "2", "--seed", "9", dataset_path])
    capsys.readouterr()
    assert main(["analyze", dataset_path, "--figures", "nope"]) == 2
    assert "unknown figure" in capsys.readouterr().err


def test_troubleshoot_command(capsys):
    code = main([
        "troubleshoot", "--prefixes", "60", "--days", "1", "--seed", "5",
        "--top", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "vantages with anycast carried" in out


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--prefixes", "0"], "prefix_count must be >= 1"),
        (["--fault-plan", "bogus:1"], "unknown fault kind 'bogus'"),
    ],
)
def test_run_bad_input_exits_with_one_line(tmp_path, capsys, flags, message):
    out_file = tmp_path / "out.json"
    assert main(["run", *flags, str(out_file)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert message in err
    assert "Traceback" not in err
    assert not out_file.exists()


def test_replay_damaged_export_exits_with_one_line(tmp_path, capsys):
    client = make_client(1)
    path = str(tmp_path / "ds.json")
    save_dataset(
        make_dataset(
            [client],
            num_days=2,
            ecs_samples=[(0, client.key, "anycast", [10.0] * 25)],
        ),
        path,
    )
    with open(path, "r+b") as handle:
        handle.truncate(os.path.getsize(path) - 40)
    assert main(["replay", path]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err
