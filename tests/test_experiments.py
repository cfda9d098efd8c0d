import csv
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import isacsim
from isacsim import ConfigError, cli, detect, experiments, list_scenarios, run_scenario
from isacsim.cli import main
from isacsim.experiments import ExperimentConfig, project_snr

EXPECTED_SCENARIOS = {
    "fig-zero-doppler-cp",
    "fig-zero-doppler-nocp",
    "fig-distortion-power",
    "fig-distortion-term-cut",
    "fig-basis-comparison-psk",
    "fig-basis-comparison-qam",
    "fig-eisl-vs-n",
    "fig-eislr-vs-n",
    "fig-pslr-vs-n",
    "fig-zero-delay",
    "fig-periodogram-pair",
    "fig-cfar-example",
    "fig-pd-curves",
    "fig-pd-ceilings",
}


def _sha256(path):
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


# ----------------------------------------------------------------- registry

def test_registry_names():
    scenarios = list_scenarios()
    assert {s.name for s in scenarios} == EXPECTED_SCENARIOS
    for s in scenarios:
        assert s.description
        assert s.default_trials >= 1


def test_unknown_scenario_lists_registry():
    with pytest.raises(ConfigError) as err:
        run_scenario(ExperimentConfig(scenario="fig-nope"))
    assert "fig-zero-doppler-cp" in str(err.value)


# ------------------------------------------------------------------- config

def test_from_mapping_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_mapping({"scenario": "fig-zero-delay", "bogus": 1})


def test_from_mapping_parses_targets_and_grid():
    cfg = ExperimentConfig.from_mapping(
        {
            "scenario": "fig-pd-curves",
            "snr_db_grid": [0, 5, 10],
            "targets": [
                {"b": 1.0, "delay": 4, "doppler": 0.0},
                {"b": 0.1, "delay": 8, "doppler": 0.5},
            ],
        }
    )
    assert cfg.snr_db_grid == (0.0, 5.0, 10.0)
    assert len(cfg.targets) == 2
    assert cfg.targets[1].delay == 8
    assert cfg.targets[1].doppler == 0.5


def test_snapshot_roundtrip():
    cfg = ExperimentConfig.from_mapping(
        {
            "scenario": "fig-zero-delay",
            "seed": 99,
            "trials": 50,
            "targets": [{"b": 0.5, "delay": 2, "doppler": 0.0}],
        }
    )
    snap = cfg.snapshot()
    again = ExperimentConfig.from_mapping(snap)
    assert again.snapshot() == snap


@pytest.mark.parametrize("key, value", [
    ("seed", 2.5), ("seed", -1), ("trials", True), ("trials", 0), ("workers", 0), ("n", 1),
    ("plots", "yes"), ("ibo_db", math.inf), ("ibo_db", 4000), ("snr_db_grid", (math.nan,)),
    ("snr_db_grid", [10.0]), ("targets", ({"b": 1.0, "delay": 4},)),
])
def test_direct_construction_checks_every_field(key, value):
    # a config built in code passes the same checks as one read from JSON,
    # when it is built: before run_scenario is called, so before any work
    with pytest.raises(ConfigError, match=f"^{key} "):
        ExperimentConfig(**{"scenario": "fig-zero-delay", "trials": 5, key: value})


def test_config_fields_cannot_be_assigned():
    cfg = ExperimentConfig(scenario="fig-zero-delay", trials=5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.trials = 0
    assert cfg.trials == 5


def test_readme_config_field_list_matches_experiment_config():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"overrides any `ExperimentConfig`\s+field \(([^)]*)\)", readme)
    assert listed is not None
    assert [f.strip() for f in listed.group(1).split(",")] == list(
        ExperimentConfig.__dataclass_fields__)


def test_from_json_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(bad)
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(bad)


# -------------------------------------------------------------- projections

def test_project_snr_interpolates():
    snr = np.array([5.0, 10.0])
    pd = np.array([0.2, 0.8])
    assert project_snr(snr, pd, 0.5) == pytest.approx(7.5)


def test_project_snr_edge_cases():
    snr = np.array([0.0, 5.0, 10.0])
    assert math.isnan(project_snr(snr, np.array([0.9, 0.95, 1.0]), 0.5))
    assert math.isnan(project_snr(snr, np.array([0.0, 0.1, 0.2]), 0.5))
    assert project_snr(snr, np.array([0.0, 0.5, 1.0]), 0.5) == pytest.approx(5.0)


# ----------------------------------------------------------------- manifests

@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    cfg = ExperimentConfig(
        scenario="fig-zero-doppler-cp", trials=200, seed=5, out_dir=str(out / "a")
    )
    manifest = run_scenario(cfg)
    return out, cfg, manifest


def test_manifest_checksums_and_metadata(small_run):
    out, cfg, manifest = small_run
    assert manifest.scenario == "fig-zero-doppler-cp"
    assert manifest.seed == 5
    assert manifest.version == isacsim.__version__
    assert manifest.wallclock_s >= 0.0
    assert manifest.config["trials"] == 200
    run_dir = out / "a" / "fig-zero-doppler-cp"
    for name, digest in manifest.files.items():
        path = run_dir / name
        assert path.is_file()
        assert _sha256(path) == digest
    written = json.loads((run_dir / "manifest.json").read_text())
    assert written["files"] == manifest.files
    assert written["scenario"] == manifest.scenario


def test_rerun_is_byte_identical(small_run):
    out, cfg, manifest = small_run
    again = run_scenario(
        ExperimentConfig(
            scenario="fig-zero-doppler-cp", trials=200, seed=5, out_dir=str(out / "b")
        )
    )
    assert again.files == manifest.files


def test_worker_count_does_not_change_output(small_run, tmp_path):
    out, cfg, manifest = small_run
    parallel = run_scenario(
        ExperimentConfig(
            scenario="fig-zero-doppler-cp",
            trials=200,
            seed=5,
            out_dir=str(out / "c"),
            workers=2,
        )
    )
    assert parallel.files == manifest.files
    # fig-zero-doppler-cp never reads ``workers``; the Pd scenarios send their
    # trial chunks (two here) to a process pool
    runs = {}
    for workers in (1, 2):
        run_dir = tmp_path / f"w{workers}"
        pd_manifest = run_scenario(
            ExperimentConfig(scenario="fig-pd-ceilings", trials=60, seed=5,
                             snr_db_grid=(10.0,), out_dir=str(run_dir), workers=workers)
        )
        runs[workers] = {
            name: (run_dir / "fig-pd-ceilings" / name).read_bytes()
            for name in pd_manifest.files
        }
    assert runs[1] and runs[1] == runs[2]


@pytest.fixture
def calibration_cut_lens(monkeypatch):
    """Cut length of every CFAR calibration the scenarios and the CLI ask
    for; each returns a fixed factor instead of calibrating."""
    cut_lens = []

    def recording(cfg, trials, rng, cut_len=64):
        cut_lens.append(cut_len)
        return 13.0

    monkeypatch.setattr(experiments, "calibrate_cfar", recording)
    monkeypatch.setattr(cli, "calibrate_cfar", recording)
    return cut_lens


@pytest.mark.parametrize("scenario, settings", [
    ("fig-cfar-example", {"n": 128}),
    ("fig-pd-curves", {"n": 128}),
    ("fig-pd-ceilings", {"n": 128}),
    ("fig-pd-curves", {"n_per": 128}),
])
def test_range_cut_scenarios_calibrate_on_the_detector_cut(tmp_path, calibration_cut_lens,
                                                           scenario, settings):
    # the detector runs on 128-bin range cuts here; calibrating on 64-cell
    # cuts would give the one-sided edge cells 36/64 of the tests instead of
    # 36/128, and the factor would miss its P_fa
    run_scenario(ExperimentConfig(scenario=scenario, trials=2, snr_db_grid=(10.0,),
                                  out_dir=str(tmp_path), **settings))
    assert calibration_cut_lens == [128]


def test_cli_pd_curve_calibrates_on_the_detector_cut(tmp_path, calibration_cut_lens):
    argv = ["pd-curve", "--n", "128", "--m", "3", "--snr-db-grid", "10", "--trials", "2",
            "--out", str(tmp_path / "pd.csv")]
    assert main(argv) == 0
    assert calibration_cut_lens == [128]


def test_pd_scenario_rejects_range_grid_shorter_than_frame(calibration_cut_lens):
    # a 48-bin delay grid under 64 subcarriers would fold the weak target's
    # bin onto bin 0 and report Pd = 0; it is rejected before the CFAR
    # calibration spends its 4e6 cells on 48-cell cuts
    with pytest.raises(ConfigError):
        run_scenario(
            ExperimentConfig(scenario="fig-pd-curves", trials=10, n_per=48,
                             snr_db_grid=(30.0,))
        )
    assert calibration_cut_lens == []


def test_csv_is_parseable(small_run):
    out, cfg, manifest = small_run
    run_dir = out / "a" / "fig-zero-doppler-cp"
    name = next(iter(manifest.files))
    with open(run_dir / name, newline="") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    assert header[0] == "lag"
    assert len(data) > 1
    for row in data:
        assert len(row) == len(header)
        for cell in row:
            float(cell)


def test_distortion_power_without_clipping_reads_the_db_floor(tmp_path):
    # constant-envelope single-carrier 16-PSK frames below the saturation
    # level never clip, so their distortion power is 0 or rounding residue:
    # the column reads the -100 dB floor, with no log10(0) warning (an error
    # under the suite's filterwarnings) or -inf
    manifest = run_scenario(ExperimentConfig(scenario="fig-distortion-power", trials=20,
                                             basis="sc", out_dir=str(tmp_path)))
    (name,) = manifest.files
    with open(tmp_path / "fig-distortion-power" / name, encoding="utf-8", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    values = np.array(rows, dtype=float)
    assert np.all(np.isfinite(values))
    assert np.any(values[:, header.index("mc_psk16_db")] == -100.0)
    assert values.min() == -100.0


# ---------------------------------------------------------------------- cli

def test_cli_list(capsys):
    assert main(["list"]) == 0
    text = capsys.readouterr().out
    for name in EXPECTED_SCENARIOS:
        assert name in text


def test_cli_list_machine(capsys):
    assert main(["list", "--machine"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split("\t") for line in lines] == [
        [s.name, str(s.default_trials), s.description] for s in list_scenarios()]


def _fresh_env(**overrides) -> dict:
    """Environment of a child interpreter that imports this source tree."""
    src = str(Path(isacsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **overrides)


def _last_line_in_fresh_interpreter(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], env=_fresh_env(), capture_output=True,
                          text=True, timeout=120, check=True)
    return proc.stdout.splitlines()[-1]


def test_import_and_list_load_no_scipy():
    # the runtime needs numpy alone, so no command pays scipy's import cost
    code = ("import sys, isacsim, isacsim.cli, isacsim.experiments\n"
            "assert isacsim.cli.main(['list']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _last_line_in_fresh_interpreter(code) == "[]"


def test_import_loads_no_process_pool():
    # only a Pd run with workers > 1 starts a pool, and it imports the pool itself
    code = ("import sys, isacsim, isacsim.cli, isacsim.experiments\n"
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures')"
            " if m in sys.modules))")
    assert _last_line_in_fresh_interpreter(code) == "[]"


def test_cli_run_unknown_scenario_exits_2(capsys):
    assert main(["run", "fig-bogus"]) == 2


def test_cli_run_and_config_file(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["run", "fig-zero-doppler-cp", "--trials", "100", "--seed", "3",
         "--out", str(out)]
    )
    assert code == 0
    run_dir = out / "fig-zero-doppler-cp"
    assert (run_dir / "manifest.json").is_file()
    assert any(p.suffix == ".csv" for p in run_dir.iterdir())
    text = capsys.readouterr().out
    assert "fig-zero-doppler-cp" in text

    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(
        json.dumps({"scenario": "fig-zero-doppler-cp", "trials": 100, "seed": 3,
                    "out_dir": str(tmp_path / "out2")})
    )
    assert main(["run", "fig-zero-doppler-cp", "--config", str(cfg_file)]) == 0
    m1 = json.loads((run_dir / "manifest.json").read_text())
    m2 = json.loads((tmp_path / "out2" / "fig-zero-doppler-cp" / "manifest.json").read_text())
    assert m1["files"] == m2["files"]


def test_cli_run_bad_config_exits_2(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"scenario": "fig-zero-doppler-cp", "bogus": True}))
    assert main(["run", "fig-zero-doppler-cp", "--config", str(cfg_file)]) == 2


@pytest.mark.parametrize("override", [
    {"n": "abc"},
    {"snr_db_grid": "abc"},
    {"snr_db_grid": [10, "x"]},
    {"snr_db_grid": []},
    {"seed": -1},
    {"workers": "2"},
    {"workers": True},
    {"trials": 2.5},
    {"ibo_db": "1"},
    {"targets": "abc"},
    {"targets": ["abc"]},
    {"targets": [{"delay": 3}]},
    {"targets": [{"b": 1.0}]},
    {"targets": [{"b": "x", "delay": 3}]},
    {"targets": [{"b": 1.0, "delay": 2.5}]},
    {"constellation": 16},
    {"constellation": ""},
    {"basis": 5},
    {"basis": ""},
    {"out_dir": 3},
    {"out_dir": ""},
    {"scenario": 7},
    {"scenario": ""},
    {"plots": 0},
    {"plots": "false"},
    {"g": 2},
    {"p1db": 0.5},
    {"v_sat": 0.5},
])
def test_cli_run_bad_config_value_exits_2(tmp_path, capsys, override):
    # fig-zero-doppler-nocp reads both constellation and basis
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"trials": 20, "out_dir": str(tmp_path), **override}))
    assert main(["run", "fig-zero-doppler-nocp", "--config", str(cfg_file)]) == 2
    assert "error:" in capsys.readouterr().err


#: The settings each scenario declares, in registry order: the config fields
#: besides the run-control ones that change its outputs.
DECLARED = {
    "fig-zero-doppler-cp": ("basis", "n"),
    "fig-zero-doppler-nocp": ("constellation", "basis", "n", "ibo_db"),
    "fig-distortion-power": ("basis", "n"),
    "fig-distortion-term-cut": ("basis", "n", "ibo_db"),
    "fig-basis-comparison-psk": ("n", "ibo_db"),
    "fig-basis-comparison-qam": ("n", "ibo_db"),
    "fig-eisl-vs-n": ("basis", "ibo_db"),
    "fig-eislr-vs-n": ("basis", "ibo_db"),
    "fig-pslr-vs-n": ("basis", "ibo_db"),
    "fig-zero-delay": ("basis", "n"),
    "fig-periodogram-pair": ("constellation", "n", "m", "cp_len", "ibo_db", "snr_db_grid",
                             "targets", "n_per", "m_per"),
    "fig-cfar-example": ("constellation", "n", "m", "cp_len", "ibo_db", "snr_db_grid",
                         "targets", "n_per"),
    "fig-pd-curves": ("n", "m", "cp_len", "snr_db_grid", "targets", "n_per"),
    "fig-pd-ceilings": ("n", "m", "cp_len", "ibo_db", "snr_db_grid", "targets", "n_per"),
}

#: One valid value of each setting, unlike any scenario's default.
SETTING_VALUES = {
    "constellation": "64-QAM", "basis": "sc", "n": 128, "m": 2, "cp_len": 32, "ibo_db": 4,
    "snr_db_grid": [5], "targets": [{"b": 0.5, "delay": 8}], "n_per": 128, "m_per": 128,
}
#: Further values an undeclared setting is rejected with: the rule does not
#: look at the value, so not even the OFDM basis of the sensing chain passes.
ALSO_REJECTED = {"basis": ("ofdm",)}


def test_declared_settings_table_covers_every_pair():
    assert list(DECLARED) == [s.name for s in list_scenarios()]
    assert list(SETTING_VALUES) == [f for f in ExperimentConfig.__dataclass_fields__
                                    if f not in experiments.RUN_CONTROL]


@pytest.fixture(scope="module")
def default_files():
    """``{scenario: {file: sha256}}`` of runs without settings, filled as the
    declared-pair cases ask for them."""
    return {}


def _run_with(tmp_path, scenario, settings, flags=()):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"trials": 20, "out_dir": str(tmp_path), **settings}))
    return main(["run", scenario, "--config", str(cfg_file), *flags])


def _run_files(tmp_path, scenario, settings):
    assert _run_with(tmp_path, scenario, settings) == 0
    run_dir = tmp_path / scenario
    return {p.name: _sha256(p) for p in run_dir.iterdir() if p.suffix == ".csv"}


def _assert_rejected_before_work(tmp_path, capsys, monkeypatch, scenario, key, value,
                                 flags=(), message=None):
    """``run scenario --config {key: value} *flags`` exits 2 with ``message``
    (by default the settings rule's) before any work, and writes nothing."""
    def monte_carlo(*args, **kwargs):
        raise AssertionError("Monte-Carlo work started")

    for name in ("average_af", "estimate_bussgang", "chunk_rngs", "sel_eisl", "sense",
                 "pd_curves", "calibrate_cfar"):
        monkeypatch.setattr(experiments, name, monte_carlo)
    assert _run_with(tmp_path, scenario, {key: value}, flags) == 2
    assert (message or f"{scenario} does not use {key};") in capsys.readouterr().err
    assert not (tmp_path / scenario).exists()


@pytest.mark.parametrize("scenario, key", [
    (scenario, key) for scenario in DECLARED for key in SETTING_VALUES
])
def test_scenario_settings_rule(tmp_path_factory, capsys, monkeypatch, default_files,
                                scenario, key):
    if key not in DECLARED[scenario]:
        # the scenario would sweep over the setting, write it into a file
        # named for another value, or ignore it
        for value in (SETTING_VALUES[key], *ALSO_REJECTED.get(key, ())):
            _assert_rejected_before_work(tmp_path_factory.mktemp("rejected"), capsys,
                                         monkeypatch, scenario, key, value)
        return
    # a declared setting changes at least one output file
    monkeypatch.setattr(experiments, "calibrate_cfar", lambda *a, **kw: 13.0)
    if scenario not in default_files:
        default_files[scenario] = _run_files(tmp_path_factory.mktemp("default"), scenario, {})
    files = _run_files(tmp_path_factory.mktemp("set"), scenario, {key: SETTING_VALUES[key]})
    assert any(files.get(name) != digest for name, digest in default_files[scenario].items())


# Pairs of the rule above, each with the value it was first reported with.

@pytest.mark.parametrize("scenario", ["fig-cfar-example", "fig-pd-curves", "fig-pd-ceilings"])
def test_cli_run_m_per_on_range_cut_scenario_exits_2(tmp_path, capsys, monkeypatch, scenario):
    # these scenarios detect on the zero-Doppler range cut and never read m_per
    _assert_rejected_before_work(tmp_path, capsys, monkeypatch, scenario, "m_per", 2)


@pytest.mark.parametrize("scenario", [
    "fig-zero-doppler-cp", "fig-distortion-power", "fig-distortion-term-cut",
    "fig-basis-comparison-psk", "fig-basis-comparison-qam", "fig-eisl-vs-n",
    "fig-eislr-vs-n", "fig-pslr-vs-n", "fig-zero-delay", "fig-pd-curves", "fig-pd-ceilings",
])
def test_cli_run_constellation_on_fixed_constellation_scenario_exits_2(tmp_path, capsys,
                                                                        monkeypatch, scenario):
    # these scenarios sweep their own constellations and never read the override
    _assert_rejected_before_work(tmp_path, capsys, monkeypatch, scenario, "constellation",
                                 "64-QAM")


@pytest.mark.parametrize("scenario", ["fig-zero-doppler-cp", "fig-distortion-power",
                                      "fig-zero-delay"])
def test_cli_run_ibo_db_on_backoff_sweep_scenario_exits_2(tmp_path, capsys, monkeypatch,
                                                          scenario):
    # these scenarios sweep their own back-offs; a configured ibo_db used to
    # replace every swept value, so all their back-off columns came out at one
    # level
    _assert_rejected_before_work(tmp_path, capsys, monkeypatch, scenario, "ibo_db", 2)


@pytest.mark.parametrize("scenario, key, value", [
    ("fig-eisl-vs-n", "n", 32),
    ("fig-eislr-vs-n", "n", 32),
    ("fig-pslr-vs-n", "n", 32),
    ("fig-basis-comparison-psk", "basis", "sc"),
    ("fig-basis-comparison-qam", "basis", "sc"),
])
def test_cli_run_swept_n_or_basis_exits_2(tmp_path, capsys, monkeypatch, scenario, key, value):
    # the N sweeps set their own sizes and the basis comparisons their own
    # bases; a configured value used to be ignored, and the run wrote the
    # default files
    _assert_rejected_before_work(tmp_path, capsys, monkeypatch, scenario, key, value)


@pytest.mark.parametrize("basis", ["sc", "cdma"])
@pytest.mark.parametrize("scenario", [
    "fig-periodogram-pair", "fig-cfar-example", "fig-pd-curves", "fig-pd-ceilings",
])
def test_cli_run_non_ofdm_basis_on_sensing_scenario_exits_2(tmp_path, capsys, monkeypatch,
                                                            scenario, basis):
    # the sensing chain's division filter is a receiver for OFDM only; an SC
    # run used to write a linear Pd of 0.0 at 10 and 30 dB
    _assert_rejected_before_work(tmp_path, capsys, monkeypatch, scenario, "basis", basis)


def test_distortion_term_cut_floors_a_zero_distortion_power(tmp_path):
    # single-carrier 16-PSK keeps a unit envelope, which IBO 1 dB puts at the
    # clip level: the limiter acts linearly and the measured distortion power
    # can be exactly 0, whose level used to raise a math domain error
    assert _run_with(tmp_path, "fig-distortion-term-cut", {"basis": "sc"}) == 0
    with open(tmp_path / "fig-distortion-term-cut" / "distortion_term_cut.csv", newline="") as fh:
        levels = [float(row["analytic_psk_db"]) for row in csv.DictReader(fh)]
    assert all(math.isfinite(v) and v >= -200.0 for v in levels)


@pytest.mark.parametrize("scenario", ["fig-periodogram-pair", "fig-cfar-example"])
def test_single_frame_scenario_rejects_several_snr_values(tmp_path, capsys, calibration_cut_lens,
                                                          scenario):
    # one frame is sensed at one SNR; the rest of a longer grid used to be
    # dropped without notice.  It is rejected before the CFAR calibration
    assert _run_with(tmp_path, scenario, {"snr_db_grid": [15, 30, 45]}) == 2
    assert "snr_db_grid" in capsys.readouterr().err
    assert not (tmp_path / scenario).exists()
    assert calibration_cut_lens == []


def test_readme_settings_table_matches_scenario_declarations():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(fig-[\w-]+)` \| ([^|]*) \|", readme, re.MULTILINE)
    assert [(name, tuple(re.findall(r"`(\w+)`", settings))) for name, settings in rows] == [
        (s.name, s.settings) for s in list_scenarios()]


@pytest.mark.parametrize("scenario, key, value, flags, message", [
    # one sample has no lags or Doppler bins to average: fig-zero-delay would
    # write a one-row CSV of zeros
    ("fig-zero-delay", "n", 1, (), "n must be >= 2"),
    ("fig-distortion-power", "n", 1, (), "n must be >= 2"),
    # rejected before its 4,000-trial Bussgang estimate, not by it
    ("fig-distortion-term-cut", "n", 1, (), "n must be >= 2"),
    ("fig-zero-doppler-cp", "n", 16, ("--trials", "0"), "trials must be >= 1"),
    ("fig-pd-ceilings", "n", 64, ("--workers", "0"), "workers must be >= 1"),
])
def test_cli_run_out_of_range_field_exits_2(tmp_path, capsys, monkeypatch, scenario, key, value,
                                            flags, message):
    # run's flags go through the same checks as the config file's fields
    _assert_rejected_before_work(tmp_path, capsys, monkeypatch, scenario, key, value, flags,
                                 message)


def test_cli_run_plots_without_matplotlib_exits_2_before_work(tmp_path, capsys, monkeypatch):
    # a run that cannot plot must not leave CSVs without a manifest
    monkeypatch.setitem(sys.modules, "matplotlib", None)
    _assert_rejected_before_work(tmp_path, capsys, monkeypatch, "fig-zero-doppler-cp", "n", 16,
                                 ("--plots",), "plot output needs matplotlib")


def test_cli_run_out_on_existing_file_exits_2_before_work(tmp_path, capsys, monkeypatch):
    # the whole scenario used to run before the output directory failed
    taken = tmp_path / "taken"
    taken.write_text("")
    _assert_rejected_before_work(tmp_path, capsys, monkeypatch, "fig-cfar-example", "n", 64,
                                 ("--out", str(taken)), f"{taken} is not a directory")
    assert taken.read_text() == ""


def test_cli_run_write_failure_exits_2(tmp_path, capsys, calibration_cut_lens):
    # a CSV path taken by a directory used to end in an IsADirectoryError traceback
    (tmp_path / "fig-cfar-example" / "cfar_linear.csv").mkdir(parents=True)
    assert main(["run", "fig-cfar-example", "--out", str(tmp_path)]) == 2
    assert "cannot write into" in capsys.readouterr().err


def test_pd_ceilings_starts_one_pool(tmp_path, monkeypatch):
    # all six curves share one pool map
    starts = []

    def counting_pool(*args, **kwargs):
        starts.append(kwargs)
        return ProcessPoolExecutor(*args, **kwargs)

    monkeypatch.setattr(detect, "ProcessPoolExecutor", counting_pool)
    run_scenario(ExperimentConfig(scenario="fig-pd-ceilings", trials=10, workers=2,
                                  out_dir=str(tmp_path)))
    assert len(starts) == 1


def test_cli_run_negative_seed_flag_exits_2(tmp_path):
    assert main(["run", "fig-zero-doppler-cp", "--seed", "-1", "--trials", "20",
                 "--out", str(tmp_path)]) == 2


def test_cli_calibrate(capsys):
    assert main(["calibrate-cfar", "--trials", "2000000", "--seed", "7"]) == 0
    text = capsys.readouterr().out
    assert "factor=" in text
    assert "p_fa=" in text


def test_cli_af_cut(tmp_path, capsys):
    out = tmp_path / "cut.csv"
    code = main(
        ["af-cut", "--constellation", "16-PSK", "--n", "32", "--trials", "200",
         "--ibo-db", "1", "--seed", "2", "--out", str(out)]
    )
    assert code == 0
    rows = list(csv.reader(open(out, newline="")))
    assert rows[0][0] == "lag"
    assert len(rows) > 32


def test_cli_af_cut_out_under_file_exits_2_before_work(tmp_path, capsys, monkeypatch):
    # the cut used to be averaged before the write failed with a traceback
    def average_af(*args, **kwargs):
        raise AssertionError("Monte-Carlo work started")

    monkeypatch.setattr(cli, "average_af", average_af)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["af-cut", "--n", "16", "--trials", "10", "--out", str(taken / "x.csv")]) == 2
    assert f"{taken} is not a directory" in capsys.readouterr().err


@pytest.mark.parametrize("argv, work", [
    (["af-cut", "--n", "16", "--trials", "10"], ("average_af",)),
    (["pd-curve", "--m", "3", "--snr-db-grid", "10", "--trials", "10"],
     ("calibrated_cfar", "pd_experiment")),
    (["periodogram", "--m", "2"], ("periodogram_table",)),
], ids=["af-cut", "pd-curve", "periodogram"])
def test_cli_out_on_existing_directory_exits_2_before_work(tmp_path, capsys, monkeypatch, argv,
                                                           work):
    # the cut, curve or map used to be computed before the write failed
    def monte_carlo(*args, **kwargs):
        raise AssertionError("Monte-Carlo work started")

    for name in work:
        monkeypatch.setattr(cli, name, monte_carlo)
    taken = tmp_path / "taken"
    taken.mkdir()
    assert main(argv + ["--out", str(taken)]) == 2
    assert f"cannot write {taken}: it is a directory" in capsys.readouterr().err
    assert not any(taken.iterdir())


def test_cli_af_cut_rejects_bad_constellation(tmp_path):
    out = tmp_path / "cut.csv"
    assert main(["af-cut", "--constellation", "8-QAM", "--out", str(out)]) == 2


def test_cli_af_cut_has_no_v_sat_flag(tmp_path, capsys):
    # the saturation amplitude is fixed at 1: the back-off alone sets y
    with pytest.raises(SystemExit) as exc:
        main(["af-cut", "--v-sat", "0.5", "--out", str(tmp_path / "cut.csv")])
    assert exc.value.code == 2
    assert "--v-sat" in capsys.readouterr().err
    assert not (tmp_path / "cut.csv").exists()


def test_cli_pd_curve(tmp_path, capsys):
    out = tmp_path / "pd.csv"
    code = main(
        ["pd-curve", "--constellation", "16-PSK", "--n", "64", "--m", "3",
         "--cp", "16", "--snr-db-grid", "10,20", "--trials", "50",
         "--factor", "13.078164525370887", "--ibo-db", "1", "--seed", "4",
         "--out", str(out)]
    )
    assert code == 0
    rows = list(csv.reader(open(out, newline="")))
    assert rows[0] == ["snr_db", "pd", "ci_halfwidth", "trials"]
    assert len(rows) == 3


@pytest.mark.parametrize("flags", [
    ["--workers", "0"],
    ["--workers", "-3"],
    ["--snr-db-grid", "10,abc"],
    ["--trials", "0"],
    ["--snr-db-grid", "4000"],
])
def test_cli_pd_curve_bad_arguments_exit_2(tmp_path, monkeypatch, flags):
    # rejected with or without --factor, and before the 4e6-cell calibration
    # that a run without it starts with
    def calibration(*args, **kwargs):
        raise AssertionError("CFAR calibration started")

    monkeypatch.setattr(cli, "calibrated_cfar", calibration)
    argv = ["pd-curve", "--m", "3", "--snr-db-grid", "10", "--trials", "10",
            "--out", str(tmp_path / "pd.csv")]
    for factor in ([], ["--factor", "13.0"]):
        assert main(argv + factor + flags) == 2
        assert not (tmp_path / "pd.csv").exists()


def test_cli_periodogram(tmp_path):
    out = tmp_path / "per.csv"
    code = main(
        ["periodogram", "--constellation", "16-QAM", "--n", "64", "--m", "4",
         "--cp", "16", "--snr-db", "20", "--seed", "6", "--out", str(out)]
    )
    assert code == 0
    rows = list(csv.reader(open(out, newline="")))
    assert len(rows) > 64 * 4


def test_cli_periodogram_makes_missing_out_directories(tmp_path):
    out = tmp_path / "new" / "dir" / "map.csv"
    assert main(["periodogram", "--m", "2", "--out", str(out)]) == 0
    assert len(list(csv.reader(open(out, newline="")))) > 64 * 2


# -------------------------------------------------------- non-finite numbers

NON_FINITE = (math.nan, math.inf, -math.inf)


def _config_case(key, settings):
    """A ``run`` of fig-periodogram-pair, which declares every numeric
    setting, with the config ``settings(value)``; JSON's ``NaN`` and
    ``Infinity`` parse as floats."""
    def argv(tmp_path, value):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"trials": 5, "out_dir": str(tmp_path),
                                        **settings(value)}))
        return ["run", "fig-periodogram-pair", "--config", str(cfg_file)]
    return key, argv


def _flag_case(command, args, flag):
    """``command`` with quick ``args`` and ``flag=value``; a grid gets the
    value as its second entry."""
    def argv(tmp_path, value):
        text = f"10,{value}" if flag == "--snr-db-grid" else str(value)
        out = [] if command == "calibrate-cfar" else ["--out", str(tmp_path / "out.csv")]
        return [command, *args, *out, f"{flag}={text}"]
    return flag, argv


#: ``(name the error must give, argv builder)`` for every numeric config
#: field and every float option of the CLI.
NON_FINITE_INPUTS = [
    *(_config_case(key, lambda v, key=key: {key: v})
      for key in ("seed", "trials", "workers", "n", "m", "cp_len", "n_per", "m_per", "ibo_db")),
    _config_case("snr_db_grid", lambda v: {"snr_db_grid": [v]}),
    _config_case("target", lambda v: {"targets": [{"b": v, "delay": 8}]}),
    _config_case("target", lambda v: {"targets": [{"b": 0.5, "delay": v}]}),
    _config_case("target", lambda v: {"targets": [{"b": 0.5, "delay": 8, "doppler": v}]}),
    _flag_case("af-cut", ["--n", "16", "--trials", "10"], "--ibo-db"),
    _flag_case("pd-curve", ["--m", "3", "--snr-db-grid", "10", "--trials", "10", "--factor", "13"],
               "--ibo-db"),
    _flag_case("pd-curve", ["--m", "3", "--snr-db-grid", "10", "--trials", "10"], "--factor"),
    _flag_case("pd-curve", ["--m", "3", "--trials", "10", "--factor", "13"], "--snr-db-grid"),
    _flag_case("periodogram", ["--m", "2"], "--ibo-db"),
    _flag_case("periodogram", ["--m", "2"], "--snr-db"),
    _flag_case("calibrate-cfar", ["--trials", "2000000"], "--pfa"),
]


@pytest.mark.parametrize("value", NON_FINITE, ids=str)
@pytest.mark.parametrize("name, argv", NON_FINITE_INPUTS,
                         ids=[f"{i}{name}" for i, (name, _) in enumerate(NON_FINITE_INPUTS)])
def test_non_finite_number_exits_2(tmp_path, capsys, name, argv, value):
    # float("nan") and float("inf") parse, and every range check written as
    # x <= 0 lets NaN by; each input must end in exit 2 and write nothing
    try:
        code = main(argv(tmp_path, value))
    except SystemExit as exc:  # argparse rejects an option's value itself
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and name in err
    assert not list(tmp_path.rglob("*.csv"))


#: Library entry points that take a float, each with the non-finite values it
#: rejects; a threshold of +inf is well defined (nothing clips).
NON_FINITE_ARGUMENTS = {
    "v_sat": (lambda v: isacsim.PaConfig(v_sat=v, ibo=1.0), NON_FINITE),
    "ibo": (lambda v: isacsim.PaConfig(v_sat=1.0, ibo=v), NON_FINITE),
    "p1db": (lambda v: isacsim.PaConfig(v_sat=1.0, ibo=2.0, p1db=v), NON_FINITE),
    "ibo_db": (lambda v: isacsim.PaConfig.at_backoff_db(v), NON_FINITE),
    "factor": (lambda v: isacsim.CfarConfig(factor=v), NON_FINITE),
    "b": (lambda v: isacsim.Target(b=v, delay=3), NON_FINITE),
    "noise_var": (lambda v: isacsim.ChannelConfig(targets=(), noise_var=v), NON_FINITE),
    "add_noise": (lambda v: isacsim.add_noise(np.ones(4), v, np.random.default_rng(0)),
                  NON_FINITE),
    "y": (lambda v: isacsim.joint_below_prob(v, 0.5), (math.nan, -math.inf)),
    "rho": (lambda v: isacsim.joint_below_prob(1.0, v), NON_FINITE),
}


@pytest.mark.parametrize("name, value", [
    (name, value) for name, (_, values) in NON_FINITE_ARGUMENTS.items() for value in values
])
def test_library_rejects_non_finite_numbers(name, value):
    with pytest.raises(ConfigError):
        NON_FINITE_ARGUMENTS[name][0](value)


# ------------------------------------------------------------ dB conversion

#: ``(setting the error must name, CLI argv or (scenario, config))`` for dB
#: values whose power ratio ``10 ** (dB / 10)`` overflows a float (4000 dB)
#: or underflows to 0 (-4000 dB).
OUT_OF_RANGE_DB = [
    ("ibo_db", ["af-cut", "--n", "16", "--trials", "10", "--ibo-db", "4000"]),
    ("snr_db", ["periodogram", "--m", "2", "--snr-db", "4000"]),
    ("snr_db", ["periodogram", "--m", "2", "--snr-db", "-4000"]),
    ("snr_db", ["pd-curve", "--m", "3", "--trials", "10", "--factor", "13",
                "--snr-db-grid", "4000"]),
    ("snr_db_grid", ("fig-cfar-example", {"snr_db_grid": [4000]})),
    ("ibo_db", ("fig-zero-doppler-nocp", {"ibo_db": 4000})),
    ("ibo_db", ("fig-pd-ceilings", {"ibo_db": 4000})),
    ("snr_db_grid", ("fig-pd-curves", {"snr_db_grid": [4000]})),
]


@pytest.mark.parametrize("name, command", OUT_OF_RANGE_DB,
                         ids=[f"{i}{name}" for i, (name, _) in enumerate(OUT_OF_RANGE_DB)])
def test_db_value_without_float_power_ratio_exits_2(tmp_path, capsys, monkeypatch, name,
                                                    command):
    # the ratio used to raise OverflowError or ZeroDivisionError (exit 1), or
    # to overflow with a warning into a noise-free run labelled 4000 dB
    if isinstance(command, list):
        assert main([*command, "--out", str(tmp_path / "out.csv")]) == 2
    else:
        scenario, settings = command

        def monte_carlo(*args, **kwargs):
            raise AssertionError("calibration or Monte-Carlo work started")

        for fn in ("average_af", "chunk_rngs", "sense", "pd_curves", "calibrate_cfar"):
            monkeypatch.setattr(experiments, fn, monte_carlo)
        with pytest.raises(ConfigError, match=name):
            run_scenario(ExperimentConfig.from_mapping(
                {"scenario": scenario, "trials": 5, "out_dir": str(tmp_path), **settings}))
        assert _run_with(tmp_path, scenario, settings) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err and "4000" in err
    assert not list(tmp_path.rglob("*.csv"))


def test_db_value_near_float_range_edge_runs(tmp_path):
    # 300 dB is a power ratio of 1e30: extreme, but a float, so the rule
    # above is the float range and not a narrower made-up limit
    out = tmp_path / "per.csv"
    assert main(["periodogram", "--m", "2", "--snr-db", "300", "--out", str(out)]) == 0
    assert out.exists()


# ------------------------------------------------------------- BLAS threads

def test_outputs_do_not_depend_on_blas_thread_count(tmp_path):
    # a BLAS-backed reduction (np.dot, np.vdot, @) splits its sum by thread,
    # so its last bits follow OPENBLAS_NUM_THREADS; the benchmark pins one
    # thread and cannot see that
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = _fresh_env(OPENBLAS_NUM_THREADS=threads)
        for scenario, trials in (("fig-distortion-power", "12"), ("fig-zero-doppler-cp", "20")):
            subprocess.run([sys.executable, "-m", "isacsim.cli", "run", scenario, "--trials",
                            trials, "--out", str(out)], env=env, capture_output=True,
                           timeout=300, check=True)
        digests.append({p.relative_to(out): _sha256(p) for p in out.rglob("*.csv")})
    assert len(digests[0]) == 2
    assert digests[0] == digests[1]
