"""CLI: shared option vocabulary, durable commands, live telemetry."""

from __future__ import annotations

import warnings

from repro import cli


# -- shared option vocabulary -------------------------------------------------


def test_shared_options_parse_for_every_data_command():
    parser = cli._build_parser()
    for command in ("anonymize", "bench", "recover", "checkpoint"):
        arguments = parser.parse_args(
            [
                command,
                "--dataset",
                "census",
                "--k",
                "7",
                "--out",
                "out.file",
                "--workers",
                "3",
                "--dir",
                "state",
            ]
        )
        assert arguments.experiment == command
        assert arguments.dataset == "census"
        assert arguments.k == 7
        assert arguments.out == "out.file"
        assert arguments.workers == 3
        assert arguments.dir == "state"


def test_dataset_file_option_does_not_warn():
    parser = cli._build_parser()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        arguments = parser.parse_args(
            ["anonymize", "--dataset-file", "points.bin"]
        )
    assert arguments.dataset_file == "points.bin"


def test_serve_demo_duration_default():
    parser = cli._build_parser()
    arguments = parser.parse_args(["serve-demo"])
    assert arguments.duration == 5.0


# -- durable command round trip ----------------------------------------------


def run_cli(capsys, argv) -> tuple[int, str]:
    code = cli.main(argv)
    return code, capsys.readouterr().out


def grep_line(output: str, label: str) -> str:
    (line,) = [line for line in output.splitlines() if label in line]
    return line


def test_anonymize_recover_checkpoint_round_trip(tmp_path, capsys):
    state = str(tmp_path / "state")
    out_csv = str(tmp_path / "release.csv")
    code, anonymize_out = run_cli(
        capsys,
        [
            "anonymize",
            "--records",
            "1500",
            "--k",
            "10",
            "--dir",
            state,
            "--out",
            out_csv,
        ],
    )
    assert code == 0
    assert "durable:" in anonymize_out
    assert (tmp_path / "release.csv").exists()

    code, recover_out = run_cli(
        capsys, ["recover", "--dir", state, "--k", "10"]
    )
    assert code == 0
    assert grep_line(recover_out, "digest:") == grep_line(
        anonymize_out, "digest:"
    )

    code, checkpoint_out = run_cli(capsys, ["checkpoint", "--dir", state])
    assert code == 0
    assert "checkpoint written at LSN" in checkpoint_out
    checkpoint_lsn = checkpoint_out.split("LSN ")[1].split()[0]

    # A recovery from the CLI-written checkpoint restores it, replaying
    # nothing, and publishes the same release.
    code, second_out = run_cli(capsys, ["recover", "--dir", state, "--k", "10"])
    assert code == 0
    assert grep_line(second_out, "digest:") == grep_line(
        anonymize_out, "digest:"
    )
    assert grep_line(second_out, "snapshot:").split() == [
        "snapshot:", "LSN", checkpoint_lsn
    ]
    assert "replayed:   0 op(s)" in second_out


def test_recover_replays_a_wal_tail(tmp_path, capsys, schema3):
    """A directory whose WAL holds acknowledged writes past its checkpoint:
    ``repro recover`` replays exactly that tail and prints the digest the
    library's own release of the state gives."""
    from repro import api
    from repro.dataset.record import Record
    from repro.dataset.table import Table
    from tests.conftest import random_records

    state = tmp_path / "state"
    records = random_records(320, seed=41)
    table = Table(schema3, tuple(records[:300]))
    with api.open(
        table, base_k=5, durability=api.DurabilityConfig(state)
    ) as handle:
        handle.load(table)
        checkpoint = handle.checkpoint()
        for record in records[300:]:
            handle.insert(record)
        victim, mover = records[0], records[1]
        handle.delete(victim.rid, victim.point)
        handle.update(
            mover.rid,
            mover.point,
            Record(mover.rid, records[2].point, mover.sensitive),
        )
        tail = handle.durability.lsn - checkpoint.lsn
        digest = handle.release(k=10).digest
    assert tail == 20 + 1 + 1

    code, output = run_cli(capsys, ["recover", "--dir", str(state), "--k", "10"])
    assert code == 0
    assert f"replayed:   {tail} op(s)" in output
    assert grep_line(output, "digest:").split() == ["digest:", digest]


def test_recover_requires_dir(capsys):
    code = cli.main(["recover"])
    assert code == 2
    assert "--dir" in capsys.readouterr().err


def test_checkpoint_requires_dir(capsys):
    code = cli.main(["checkpoint"])
    assert code == 2
    assert "--dir" in capsys.readouterr().err


def test_anonymize_without_dir_stays_in_memory(tmp_path, capsys):
    code, output = run_cli(
        capsys, ["anonymize", "--records", "800", "--k", "5"]
    )
    assert code == 0
    assert "durable:" not in output
    assert "digest:" in output


# -- live telemetry commands --------------------------------------------------


def test_list_mentions_live_telemetry_commands(capsys):
    code, output = run_cli(capsys, ["list"])
    assert code == 0
    assert "serve-demo" in output
    assert "top" in output


def test_top_requires_url(capsys):
    code = cli.main(["top"])
    assert code == 2
    assert "--url" in capsys.readouterr().err


def test_serve_demo_serves_metrics_and_logs_slow_ops(tmp_path, capsys):
    slow_log = tmp_path / "slow.jsonl"
    code, output = run_cli(
        capsys,
        [
            "serve-demo",
            "--records",
            "400",
            "--k",
            "5",
            "--duration",
            "0.4",
            "--port",
            "0",
            "--slow-op-log",
            str(slow_log),
            "--slow-op-threshold",
            "0.000001",
        ],
    )
    assert code == 0
    assert "serving telemetry at http://" in output
    assert "health=healthy" in output
    # Every op beats a microsecond threshold, so the log must have entries.
    assert "slow ops:" in output
    assert slow_log.exists()
    first = slow_log.read_text().splitlines()[0]
    import json

    entry = json.loads(first)
    assert entry["op"] in {"commit", "release"}
    assert entry["seconds"] >= entry["threshold"]


def test_top_renders_one_frame_from_live_service(small_table, capsys):
    from repro import api, obs

    obs.enable()
    service = api.serve(
        small_table.schema,
        service_config=api.ServiceConfig(
            telemetry=api.TelemetryConfig(endpoint=True)
        ),
    )
    try:
        service.insert_batch(list(small_table.records))
        service.release(k=5)
        code = cli.main(
            [
                "top",
                "--url",
                service.telemetry_url,
                "--count",
                "1",
                "--no-clear",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "service health: healthy" in output
        assert "latency" in output or "p50" in output
    finally:
        service.close()
        obs.disable()
        obs.reset()


def test_top_rejects_a_negative_interval(capsys):
    # Refused before any scrape (time.sleep would raise after one frame).
    code = cli.main(
        ["top", "--url", "http://127.0.0.1:9", "--interval", "-1", "--no-clear"]
    )
    assert code == 2
    error = capsys.readouterr().err
    assert "--interval" in error
    assert "cannot scrape" not in error


def test_top_reports_unreachable_endpoint(capsys):
    # Nothing listens on this port: the scrape must fail fast with rc 1.
    code = cli.main(
        ["top", "--url", "http://127.0.0.1:9", "--count", "1", "--no-clear"]
    )
    assert code == 1
    assert "cannot scrape" in capsys.readouterr().err
