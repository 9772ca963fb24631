import csv

import pytest

from hafnet import cli
from hafnet.experiments import ScenarioConfig, TimeVaryingConfig, save_config


@pytest.fixture
def small_ini(tmp_path):
    cfg = ScenarioConfig(
        num_users=5, num_bs=2, num_seeds=1, force=True,
        timevary=TimeVaryingConfig(num_slots=2, iters_per_slot=2),
    )
    path = tmp_path / "small.ini"
    save_config(cfg, path)
    return path


def test_timevary_takes_its_own_methods(small_ini, tmp_path):
    out = tmp_path / "out"
    argv = ["timevary", "--config", str(small_ini), "--methods", "proposed,frozen", "--out", str(out)]
    assert cli.main(argv) == 0
    with open(out / "timevary.csv") as f:
        rows = list(csv.DictReader(f))
    assert [(r["slot"], r["method"]) for r in rows] == [
        ("1", "proposed"), ("1", "frozen"), ("2", "proposed"), ("2", "frozen")
    ]


def test_unknown_method_still_raises(small_ini, tmp_path):
    out = str(tmp_path / "out")
    with pytest.raises(ValueError, match="bogus"):
        cli.main(["timevary", "--config", str(small_ini), "--methods", "proposed,bogus", "--out", out])
    with pytest.raises(ValueError, match="frozen"):
        cli.main(["static", "--config", str(small_ini), "--methods", "proposed,frozen", "--out", out])


def test_converge_writes_a_manifest(small_ini, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["converge", "--config", str(small_ini), "--out", str(out)]) == 0
    assert (out / "manifest.txt").read_text() == "convergence.csv\nmanifest.txt\n"
    with open(out / "convergence.csv") as f:
        assert len(list(csv.DictReader(f))) == 500


def _oracle(tmp_path):
    out = tmp_path / "oracle"
    argv = ["oracle", "--instances", "3", "--max-users", "4", "--max-bs", "2", "--out", str(out)]
    return cli.main(argv), out


def test_oracle_writes_the_static_tables_and_passes_sound_certificates(tmp_path):
    code, out = _oracle(tmp_path)
    assert code == 0
    assert (out / "manifest.txt").read_text().split() == [
        "manifest.txt", "static_group_metrics.csv", "static_per_seed.csv", "static_summary.csv"
    ]
    with open(out / "static_per_seed.csv") as f:
        rows = list(csv.DictReader(f))
    assert [(r["seed"], r["method"]) for r in rows] == [
        (str(s), m) for s in range(3) for m in ("proposed", "brute_force")
    ]


def test_oracle_exits_1_when_a_certificate_is_unsound(tmp_path, monkeypatch):
    # negative control: a bound below every non-negative gap fails each seed
    monkeypatch.setattr("hafnet.pricing.theorem2_bound", lambda *args: -1.0)
    code, _ = _oracle(tmp_path)
    assert code == 1
