"""Pinned per-scenario digests: the simulator's output must not drift.

For every registered scenario at the gating seed, two sha256 digests
are committed in ``tests/golden/scenario_digests.json``:

* ``content`` — the warehouse's canonical content lines with the
  run's log-directory prefix masked (source paths otherwise depend on
  the workdir), so every timestamp, payload and row is pinned;
* ``reports`` — the validation score and the rendered diagnosis
  reports.

Any change to what the simulator emits (event order at equal
timestamps, RNG draws, demand slicing) moves at least the content
digest.  A simulator speed-up must leave both unchanged; a deliberate
model change rewrites them with::

    PYTHONPATH=src python -m pytest tests/validation/test_scenario_digests.py --update-golden
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.validation.conformance import _normalized_content_lines
from repro.validation.runner import SCENARIOS

# Matches conftest.GATING_SEED (tests are not an importable package).
GATING_SEED = 7

DIGESTS = Path(__file__).resolve().parent.parent / "golden" / "scenario_digests.json"


def _sha256(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _digests(outcome) -> dict[str, str]:
    reports = json.dumps(
        [outcome.score.to_dict(), outcome.report_texts], sort_keys=True
    )
    return {
        "content": _sha256(_normalized_content_lines(outcome)),
        "reports": _sha256([reports]),
    }


@pytest.mark.slow
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_scenario_digests_match_pinned(scenario, validation_runner, update_golden):
    got = _digests(validation_runner.run(scenario, seed=GATING_SEED))
    pinned = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    if update_golden:
        pinned[scenario] = got
        DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
        return
    assert scenario in pinned, (
        f"no digest pinned for {scenario} — generate with --update-golden"
    )
    assert got == pinned[scenario], (
        f"{scenario} at seed {GATING_SEED} diverged from "
        "tests/golden/scenario_digests.json; if the model change is "
        "intentional, rerun with --update-golden"
    )


def test_every_scenario_is_pinned():
    assert set(json.loads(DIGESTS.read_text())) == set(SCENARIOS)
