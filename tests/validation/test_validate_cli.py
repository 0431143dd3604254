"""The ``mscope validate`` subcommand."""

import json

from repro.cli import main


def test_validate_text_report(tmp_path, capsys):
    code = main(
        [
            "validate",
            "--scenario",
            "db_log_flush",
            "--seed",
            "7",
            "--workdir",
            str(tmp_path / "work"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "scenario db_log_flush (seed 7, mode batch)" in out
    assert "precision" in out and "recall" in out
    assert "detected, attributed" in out


def test_validate_json_reports_meet_acceptance_floors(tmp_path, capsys):
    """The acceptance criterion: precision and recall >= 0.9 at seed 7,
    and the JSON report is identical across two consecutive runs."""
    renders = []
    for attempt in range(2):
        json_path = tmp_path / f"report{attempt}.json"
        code = main(
            [
                "validate",
                "--scenario",
                "db_log_flush",
                "--seed",
                "7",
                "--format",
                "json",
                "--json",
                str(json_path),
                "--check-floors",
            ]
        )
        assert code == 0
        capsys.readouterr()
        renders.append(json_path.read_text())
    assert renders[0] == renders[1]
    payload = json.loads(renders[0])
    (scenario,) = payload["scenarios"]
    assert scenario["score"]["precision"] >= 0.9
    assert scenario["score"]["recall"] >= 0.9
    assert payload["failures"] == []


def test_validate_check_floors_fails_on_unmet_floor(tmp_path, capsys, monkeypatch):
    from repro.validation import runner as runner_module

    spec = runner_module.SCENARIOS["db_log_flush"]
    impossible = {**spec.floors, "precision": 1.1}
    monkeypatch.setitem(
        runner_module.SCENARIOS,
        "db_log_flush",
        runner_module.ScenarioSpec(
            name=spec.name,
            description=spec.description,
            build=spec.build,
            fast=spec.fast,
            floors=impossible,
        ),
    )
    code = main(
        [
            "validate",
            "--scenario",
            "db_log_flush",
            "--seed",
            "7",
            "--check-floors",
            "--workdir",
            str(tmp_path / "work"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out and "precision" in out


def test_validate_workdir_keeps_artifacts(tmp_path, capsys):
    workdir = tmp_path / "kept"
    main(
        [
            "validate",
            "--scenario",
            "db_log_flush",
            "--seed",
            "7",
            "--workdir",
            str(workdir),
        ]
    )
    capsys.readouterr()
    rundir = workdir / "db_log_flush-seed7"
    assert (rundir / "fault_schedule.json").exists()
    assert (rundir / "batch" / "mscope.db").exists()
    assert (rundir / "logs").is_dir()
