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


def _exit_code(argv, out):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(out)])
    assert not out.exists()
    return exc.value.code


def test_unknown_method_still_raises(small_ini, tmp_path, capsys):
    # a method the library rejects exits 2, as a flag argparse rejects does
    out = tmp_path / "out"
    assert _exit_code(["timevary", "--config", str(small_ini), "--methods", "proposed,bogus"], out) == 2
    err = capsys.readouterr().err
    assert "unknown method 'bogus'" in err
    allowed = err.split("choose from ")[1].strip().split(", ")
    assert len(allowed) == len(set(allowed))  # each method named once
    assert _exit_code(["static", "--config", str(small_ini), "--methods", "proposed,frozen"], out) == 2
    assert "unknown method 'frozen'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--users", ","], "user_counts must name at least one count"),
    (["sweep", "--users", "40,40"], "name a count twice"),
    (["sweep", "--users", "40,70"], "num_users=70 outside"),
    (["static", "--methods", "proposed,brute_force"], "exceed the 1000000 cap"),
    (["sweep", "--methods", "brute_force"], "exceed the 1000000 cap"),
    (["converge", "--config", "/nonexistent/scenario.ini"], "cannot read config file /nonexistent/scenario.ini"),
])
def test_configs_the_library_rejects_exit_2_before_anything_is_written(argv, message, tmp_path, capsys):
    assert _exit_code(argv, tmp_path / "out") == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("verb, flag, value", [
    ("converge", "--threads", "3"),
    ("converge", "--methods", "pf"),
    ("timevary", "--threads", "3"),
    ("oracle", "--methods", "two_rs"),
    ("static", "--threads", "0"),
    ("sweep", "--threads", "-1"),
    ("oracle", "--threads", "0"),
    ("oracle", "--instances", "0"),
    ("oracle", "--max-users", "0"),
    ("oracle", "--max-bs", "-1"),
    ("sweep", "--users", "40,abc"),
])
def test_verbs_reject_flags_they_do_not_read(verb, flag, value, small_ini, tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main([verb, "--config", str(small_ini), flag, value, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("verb", ["static", "sweep", "timevary", "converge", "oracle"])
def test_a_negative_master_seed_exits_2_before_anything_is_written(verb, small_ini, tmp_path, capsys):
    # static and timevary left an empty output behind, and every verb ended
    # in a numpy traceback with exit 1
    assert _exit_code([verb, "--config", str(small_ini), "--seed", "-1"], tmp_path / "out") == 2
    assert "-1 is not >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["static", "sweep", "timevary"])
def test_an_empty_method_list_exits_2(verb, small_ini, tmp_path, capsys):
    # an empty --methods ran the default methods
    assert _exit_code([verb, "--config", str(small_ini), "--methods", ""], tmp_path / "out") == 2
    assert "methods must name at least one method" in capsys.readouterr().err


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


def test_oracle_exits_2_before_any_solve_when_brute_force_is_too_large(tmp_path, monkeypatch):
    # 3^13 associations exceed the brute-force cap; exit 1 would read as an unsound certificate
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the size check")

    monkeypatch.setattr("hafnet.pricing.solve", no_solve)
    out = tmp_path / "oracle"
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle", "--instances", "1", "--max-users", "13", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_oracle_exits_1_when_a_certificate_is_unsound(tmp_path, monkeypatch):
    # negative control: a bound below every non-negative gap fails each seed
    monkeypatch.setattr("hafnet.pricing.theorem2_bound", lambda *args: -1.0)
    code, _ = _oracle(tmp_path)
    assert code == 1
