"""Tests for the orchestration layer: config, DOE, training, CLI.

The heavy simulator is swapped out via the synthetic config switch,
which replaces both outputs with a known rank-2 response (two linear
ridges along orthogonal input directions).  Training must then recover
exactly two features per output with essentially perfect fits, which
pins the whole reduce-discover-fit chain end to end.
"""

import json
import re
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from oracles import buffered_superquantile_se, maximin_doe_pdist, predict_row

from pbfopt import cli, pipeline, risk, surrogate, thermal
from pbfopt.optimize import (
    OptimizeConfig,
    draw_material_samples,
    is_feasible,
    solve,
)
from pbfopt.pipeline import (
    DEFAULT_STARTS,
    INPUT_NAMES,
    PipelineConfig,
    bundle_digest,
    config_from_dict,
    config_hash,
    config_to_dict,
    default_input_bounds,
    generate_doe,
    load_config,
    run_optimization,
    run_simulations,
    run_training,
    simulate_stress_maxima,
    validate,
)
from pbfopt.risk import buffered_superquantile
from pbfopt.surrogate import bundle_to_dict, load_bundle
from pbfopt.thermal import (
    DESIGN_BOUNDS,
    RANDOM_INPUT_BOUNDS,
    DesignPoint,
    ModelParams,
    SimGridConfig,
    SimulationError,
)

WIDE_WINDOW = (-1.0e9, 1.0e9)


def synthetic_config(out_dir, **overrides) -> PipelineConfig:
    opt = OptimizeConfig(n_mc=1000, temp_window=WIDE_WINDOW)
    base = dict(
        M=48, n_val=20, synthetic=True, out_dir=str(out_dir), optimize=opt
    )
    base.update(overrides)
    return PipelineConfig(**base)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    cfg = synthetic_config(out)
    bundle = run_training(cfg)
    return cfg, bundle


class TestConfigSerialization:
    def test_empty_document_reproduces_the_nominal_setup(self):
        cfg = config_from_dict({})
        assert cfg.M == 120
        assert cfg.n_val == 50
        assert cfg.optimize.tau == 825.0
        assert cfg.optimize.n_mc == 20000
        assert cfg.optimize.alpha_t == 0.95
        b = cfg.input_bounds
        assert tuple(b[0]) == DESIGN_BOUNDS["v"]
        assert tuple(b[1]) == DESIGN_BOUNDS["P"]
        for i, name in enumerate(INPUT_NAMES[2:], start=2):
            assert tuple(b[i]) == RANDOM_INPUT_BOUNDS[name]
        assert config_to_dict(cfg) == config_to_dict(PipelineConfig())

    def test_round_trip_preserves_hash(self):
        cfg = PipelineConfig(M=60, seed_doe=9)
        again = config_from_dict(config_to_dict(cfg))
        assert config_to_dict(again) == config_to_dict(cfg)
        assert config_hash(again) == config_hash(cfg)

    def test_partial_override(self):
        cfg = config_from_dict({"optimize": {"tau": 700.0}, "M": 45})
        assert cfg.optimize.tau == 700.0
        assert cfg.M == 45
        assert cfg.optimize.n_mc == 20000  # untouched default
        assert config_hash(cfg) != config_hash(PipelineConfig())

    def test_canonical_hashes_are_pinned(self):
        assert config_hash(PipelineConfig()) == (
            "30bce308fd2a70caadb6c150c601d14b6d580806dfd447027c7118301d429442"
        )
        assert config_hash(PipelineConfig(M=60, seed_doe=9)) == (
            "193d1dc2340945cfbe848919811800fcd1bbcfaf99c19cf21ee71cf62434d3e3"
        )

    @pytest.mark.parametrize(
        "ints, floats",
        [
            ({"tau": 800}, {"tau": 800.0}),
            ({"temp_window": (1700, 1800)}, {"temp_window": (1700.0, 1800.0)}),
        ],
    )
    def test_equal_configs_share_a_hash(self, ints, floats):
        a = PipelineConfig(optimize=OptimizeConfig(**ints))
        b = PipelineConfig(optimize=OptimizeConfig(**floats))
        assert config_hash(a) == config_hash(b)

    def test_numpy_integers_hash_as_ints(self):
        cfg = PipelineConfig(
            M=np.int64(60),
            grid=SimGridConfig(cells_x=np.int64(64)),
            optimize=OptimizeConfig(n_mc=np.int32(2000)),
        )
        want = PipelineConfig(M=60, optimize=OptimizeConfig(n_mc=2000))
        assert config_hash(cfg) == config_hash(want)
        stored = (cfg.M, cfg.grid.cells_x, cfg.optimize.n_mc)
        assert [type(x) for x in stored] == [int] * 3
        for flag in (True, np.bool_(True)):
            with pytest.raises(ValueError, match="'M' must be an integer"):
                PipelineConfig(M=flag)

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"synthetic": "false"}, "'synthetic'"),
            ({"M": 120.9}, "'M'"),
            ({"grid": {"cells_x": 64.5}}, "'grid.cells_x'"),
            ([], "config must be a JSON object"),
            ({"optimize": 5}, "optimize must be a JSON object"),
        ],
    )
    def test_mistyped_values_rejected(self, doc, key):
        with pytest.raises(ValueError, match=key):
            config_from_dict(doc)

    def test_hash_ignores_location_and_parallelism(self):
        a = PipelineConfig(out_dir="a", workers=1)
        b = PipelineConfig(out_dir="b", workers=4)
        assert config_hash(a) == config_hash(b)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config"):
            config_from_dict({"Mm": 3})
        with pytest.raises(ValueError, match="unknown optimize"):
            config_from_dict({"optimize": {"speed": 1}})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"M": 29},
            {"n_val": 9},
            {"k_max": 0},
            {"c_r": 0.0},
            {"c_r": 1.5},
            {"workers": 0},
            {"err_threshold": 0.0},
            {"min_gain": 1.0},
        ],
    )
    def test_invariants_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PipelineConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, key",
        [
            ({"k_max": 2.5}, "'k_max' must be an integer"),
            ({"n_val": 12.5}, "'n_val' must be an integer"),
            ({"M": 50.5}, "'M' must be an integer"),
            ({"seed_doe": True}, "'seed_doe' must be an integer"),
            ({"c_r": "0.5"}, "'c_r' must be a number"),
            (
                {"optimize": OptimizeConfig(n_mc=1000.5)},
                "'optimize.n_mc' must be an integer",
            ),
            (
                {"optimize": OptimizeConfig(temp_window=(1700.0, 1800.0, 1900.0))},
                "'optimize.temp_window' must be two numbers",
            ),
        ],
        ids=["k_max", "n_val", "M", "seed_doe", "c_r", "n_mc", "temp_window"],
    )
    def test_python_configs_meet_the_json_rules(self, kwargs, key, monkeypatch):
        # a config built in Python fails on construction, as its JSON form
        # would on loading, before any simulation starts
        runs = []
        monkeypatch.setattr(pipeline, "simulate_batch", lambda *a: runs.append(a))
        monkeypatch.setattr(pipeline, "_run_batch", lambda *a: runs.append(a))
        with pytest.raises(ValueError, match=key):
            run_training(PipelineConfig(**kwargs))
        assert runs == []

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"optimize": {"v_bounds": [100.0, 1000.0]}}, "'v_bounds'"),
            ({"optimize": {"p_bounds": [20.0, 200.0]}}, "'p_bounds'"),
            ({"optimize": {"solver": "cobyla"}}, "'solver'"),
            ({"optimize": {"restarts": 8}}, "'restarts'"),
            ({"optimize": {"penalty_weight": 100.0}}, "'penalty_weight'"),
            ({"optimize": {"max_iters": 500}}, "'max_iters'"),
            ({"optimize": {"constraint_tol": 1e-4}}, "'constraint_tol'"),
            ({"model": {"w": 1.5}}, "'w'"),
        ],
    )
    def test_removed_keys_rejected(self, doc, key):
        with pytest.raises(ValueError, match=f"unknown .* key.*{key}"):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "doc",
        [{"optimize": {"scan_length": 3.0}}, {"model": {"l": 3.0}}],
        ids=["scan_length", "model.l"],
    )
    def test_scan_length_must_match_part_length(self, doc):
        # the energy P * scan_length / v must be taken over the track that
        # the simulations scan, model.l
        with pytest.raises(ValueError, match=r"optimize\.scan_length .*model\.l"):
            config_from_dict(doc)
        cfg = config_from_dict({"optimize": {"scan_length": 3.0}, "model": {"l": 3.0}})
        assert cfg.optimize.scan_length == cfg.model.l == 3.0

    def test_readme_shows_the_default_config(self):
        # the JSON block under README's "Configuration" heading lists every
        # section in full except the elided model constants
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        doc = json.loads(section.split("```json\n", 1)[1].split("\n```", 1)[0])
        want = config_to_dict(PipelineConfig())
        assert set(doc) == set(want)
        for key in set(want) - {"model"}:
            assert doc[key] == want[key], key

    @pytest.mark.parametrize(
        "build, doc, name",
        [
            (lambda: PipelineConfig(seed_doe=-1), {"seeds": {"doe": -1}}, "seed_doe"),
            (lambda: PipelineConfig(seed_mc=-1), {"seeds": {"mc": -1}}, "seed_mc"),
            (
                lambda: PipelineConfig(seed_validation=-1),
                {"seeds": {"validation": -1}},
                "seed_validation",
            ),
            (lambda: OptimizeConfig(seed=-1), {"optimize": {"seed": -1}}, "optimize seed"),
        ],
        ids=["doe", "mc", "validation", "optimize"],
    )
    def test_negative_seeds_rejected(self, build, doc, name):
        with pytest.raises(ValueError, match=name):
            build()
        with pytest.raises(ValueError, match=name):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "bounds",
        [{"T0": [585.0, float("inf")]}, {"v": [float("nan"), 1000.0]}],
    )
    def test_non_finite_bounds_rejected(self, bounds):
        with pytest.raises(ValueError, match="finite"):
            config_from_dict({"bounds": bounds})

    def test_file_round_trip(self, tmp_path):
        cfg = PipelineConfig(M=50, seed_mc=77)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        assert config_hash(load_config(path)) == config_hash(cfg)

    def test_malformed_file_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValueError):
            load_config(path)


class TestGenerateDoe:
    def test_latin_hypercube_strata(self):
        bounds = default_input_bounds()
        doe = generate_doe(120, bounds, seed=5)
        assert doe.shape == (120, 6)
        width = (bounds[:, 1] - bounds[:, 0]) / 120
        for j in range(6):
            strata = np.floor((doe[:, j] - bounds[j, 0]) / width[j]).astype(int)
            assert np.array_equal(np.sort(strata), np.arange(120))

    def test_even_m_symmetric_pairs(self):
        bounds = default_input_bounds()
        doe = generate_doe(40, bounds, seed=2)
        mirrored = doe + doe[::-1]
        want = bounds[:, 0] + bounds[:, 1]
        assert mirrored == pytest.approx(np.tile(want, (40, 1)))

    def test_odd_m_center_point(self):
        bounds = np.array([[0.0, 1.0], [10.0, 20.0]])
        doe = generate_doe(31, bounds, seed=3)
        assert doe[15] == pytest.approx([0.5, 15.0])
        mirrored = doe + doe[::-1]
        assert mirrored == pytest.approx(np.tile([1.0, 30.0], (31, 1)))

    def test_two_points_reflect_through_midpoint(self):
        doe = generate_doe(2, np.array([[0.0, 4.0]]), seed=0)
        assert sorted(doe[:, 0]) == pytest.approx([1.0, 3.0])

    def test_deterministic_under_seed(self):
        bounds = default_input_bounds()
        assert np.array_equal(
            generate_doe(24, bounds, seed=8), generate_doe(24, bounds, seed=8)
        )
        assert not np.array_equal(
            generate_doe(24, bounds, seed=8), generate_doe(24, bounds, seed=9)
        )

    def test_no_duplicate_points(self):
        from scipy.spatial.distance import pdist

        doe = generate_doe(60, default_input_bounds(), seed=1)
        unit = (doe - doe.min(0)) / (doe.max(0) - doe.min(0))
        assert pdist(unit).min() > 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            generate_doe(0, default_input_bounds(), seed=0)
        with pytest.raises(ValueError):
            generate_doe(10, np.array([[1.0, 1.0]]), seed=0)

    @pytest.mark.parametrize("M, seed", [(43, 0), (44, 7), (60, 19), (120, 1)])
    def test_matches_pdist_reference(self, M, seed):
        bounds = default_input_bounds()
        assert np.array_equal(
            generate_doe(M, bounds, seed), maximin_doe_pdist(M, bounds, seed)
        )


class TestSyntheticTraining:
    def test_artifacts_written_with_expected_shapes(self, trained):
        cfg, _ = trained
        out = Path(cfg.out_dir)
        doe = np.loadtxt(out / "doe.csv", delimiter=",")
        T = np.loadtxt(out / "T.csv", delimiter=",")
        S = np.loadtxt(out / "S.csv", delimiter=",")
        assert doe.shape == (48, 6)
        assert T.shape == (48, 31)
        assert S.shape == (48, 448)
        assert (out / "bundle.json").exists()
        assert (out / "err_curves.json").exists()

    def test_recovers_two_features_per_output(self, trained):
        _, bundle = trained
        assert bundle.temperature.right_vectors.shape == (31, 2)
        assert bundle.stress.right_vectors.shape == (448, 2)
        assert bundle.provenance["K_T"] == 2
        assert bundle.provenance["K_S"] == 2

    def test_planted_response_is_fit_almost_perfectly(self, trained):
        _, bundle = trained
        for m in bundle.temperature.features + bundle.stress.features:
            assert m.poly.r2 > 0.999
            assert m.subspace.r == 1
            assert m.poly.degree == 1

    def test_bundle_file_round_trips_byte_for_byte(self, trained, tmp_path):
        cfg, _ = trained
        path = Path(cfg.out_dir) / "bundle.json"
        doc = bundle_to_dict(load_bundle(path))
        pipeline.write_artifact(tmp_path, "bundle.json", doc)
        assert (tmp_path / "bundle.json").read_bytes() == path.read_bytes()

    def test_data_matrices_have_rank_two(self, trained):
        cfg, _ = trained
        out = Path(cfg.out_dir)
        T = np.loadtxt(out / "T.csv", delimiter=",")
        S = np.loadtxt(out / "S.csv", delimiter=",")
        assert np.linalg.matrix_rank(T, tol=1e-8) == 2
        assert np.linalg.matrix_rank(S, tol=1e-8) == 2

    def test_bundle_reproduces_training_rows(self, trained):
        cfg, bundle = trained
        out = Path(cfg.out_dir)
        doe = np.loadtxt(out / "doe.csv", delimiter=",")
        T = np.loadtxt(out / "T.csv", delimiter=",")
        for i in (0, 17, 47):
            row = predict_row(bundle, "temperature", doe[i])
            assert row == pytest.approx(T[i], rel=1e-6, abs=1e-8)

    def test_err_curve_report_is_consistent(self, trained):
        cfg, bundle = trained
        with open(Path(cfg.out_dir) / "err_curves.json", encoding="utf-8") as f:
            curves = json.load(f)
        assert curves["temperature"]["selected"] == 2
        assert curves["stress"]["selected"] == 2
        errs = curves["temperature"]["errors"]
        assert errs[0] > 0.05 and errs[1] < 1e-8
        assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))

    def test_rerun_is_byte_identical(self, trained):
        cfg, _ = trained
        out = Path(cfg.out_dir)
        names = ("doe.csv", "T.csv", "S.csv", "bundle.json", "err_curves.json")
        before = {n: (out / n).read_bytes() for n in names}
        run_training(cfg)
        for n in names:
            assert (out / n).read_bytes() == before[n], n

    def test_one_svd_per_snapshot_matrix(self, trained, tmp_path, monkeypatch):
        cfg, _ = trained
        data = [np.loadtxt(Path(cfg.out_dir) / f"{n}.csv", delimiter=",")
                for n in ("doe", "T", "S")]
        svd, shapes = np.linalg.svd, []

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        pipeline.train_from_matrices(replace(cfg, out_dir=str(tmp_path)), *data)
        assert shapes == [(48, 31), (48, 448)]  # T once, then S once

    @pytest.mark.parametrize("name, cols", [("doe", 5), ("T", 30), ("S", 400)])
    def test_mis_sized_matrices_are_rejected_before_fitting(
        self, trained, tmp_path, monkeypatch, name, cols
    ):
        cfg, _ = trained
        data = {n: np.loadtxt(Path(cfg.out_dir) / f"{n}.csv", delimiter=",")
                for n in ("doe", "T", "S")}
        data[name] = data[name][:, :cols]
        monkeypatch.setattr(pipeline, "_fit_output", lambda *a: pytest.fail("fitted"))
        match = (rf"{name} has 48 rows and {cols} columns, not M = 48 and "
                 r"(6|31|448); rerun `pbfopt simulate` with this config")
        with pytest.raises(ValueError, match=match):
            pipeline.train_from_matrices(replace(cfg, out_dir=str(tmp_path)),
                                         data["doe"], data["T"], data["S"])
        assert not (tmp_path / "bundle.json").exists()

    def test_symmetric_doe_needs_more_than_the_config_floor(self, tmp_path):
        # mirrored pairs share their quadratic part, so the gradient-fit
        # stage needs ceil(M/2) >= 22 even-space rows; below that the
        # configuration must fail before any simulation runs
        for m in (40, 42):
            with pytest.raises(ValueError, match="rank-deficient"):
                synthetic_config(tmp_path / "small", M=m)
        assert synthetic_config(tmp_path / "small", M=43).M == 43

    def test_workers_do_not_change_results(self, tmp_path, trained):
        cfg_ref, _ = trained
        cfg2 = synthetic_config(tmp_path / "par", workers=2)
        doe2, T2, S2 = run_simulations(cfg2)
        T1 = np.loadtxt(Path(cfg_ref.out_dir) / "T.csv", delimiter=",")
        assert np.array_equal(T2, T1)


class TestSimulationBatch:
    """The batch runs the real thermal solver here, not the synthetic rows."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_run_names_stage_index_and_inputs(self, tmp_path, workers):
        # an absurdly concentrated beam drives the probe past its clamp
        cfg = PipelineConfig(
            model=ModelParams(r=0.02, z0=0.01), out_dir=str(tmp_path), workers=workers
        )
        z = [[650.0, 825.0, 110.0, 612.0], [700.0, 800.0, 105.0, 600.0]]
        with pytest.raises(SimulationError) as info:
            simulate_stress_maxima(cfg, DesignPoint(100.0, 200.0), z)
        msg = str(info.value)
        assert msg.startswith(
            "validation run 0 failed for inputs "
            "[100.0, 200.0, 650.0, 825.0, 110.0, 612.0]: "
        )
        assert "step" in msg
        assert info.value.step > 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_lowest_failing_run_is_reported(self, tmp_path, monkeypatch, workers):
        # run 0 succeeds; runs 2, 3 and 4 overshoot the clamp, run 3 at the
        # earliest step; blocks of two put runs 4, 2 and 3 in three blocks
        monkeypatch.setattr(thermal, "BLOCK_RUNS", 2)
        grid = SimGridConfig(16, 8)
        cfg = PipelineConfig(grid=grid, out_dir=str(tmp_path), workers=workers)
        z = [650.0, 825.0, 110.0, 612.0]
        rows = np.array([[100.0, 0.0, *z], [550.0, 20.0, *z], [300.0, 3000.0, *z],
                         [1000.0, 20000.0, *z], [100.0, 5000.0, *z]])
        with pytest.raises(SimulationError) as alone:
            thermal.simulate(DesignPoint(300.0, 3000.0), thermal.RandomInputs(*z),
                             grid=grid)
        with pytest.raises(SimulationError) as info:
            pipeline._run_batch(cfg, rows, "training")
        assert str(info.value) == (
            "training run 2 failed for inputs "
            f"[300.0, 3000.0, 650.0, 825.0, 110.0, 612.0]: {alone.value}"
        )
        assert info.value.step == alone.value.step > 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_invalid_last_row_rejected_before_stepping(
        self, tmp_path, monkeypatch, workers
    ):
        kernel_calls = []
        monkeypatch.setattr(thermal, "_solve_field", lambda *a, **k: kernel_calls.append(a))
        cfg = PipelineConfig(out_dir=str(tmp_path), workers=workers)
        z = draw_material_samples(
            np.array(list(RANDOM_INPUT_BOUNDS.values())), 4, np.random.default_rng(8)
        )
        z[-1, 3] = 0.0  # the last run's density
        with pytest.raises(ValueError, match="rho"):
            simulate_stress_maxima(cfg, DesignPoint(500.0, 100.0), z)
        assert kernel_calls == []

    @pytest.mark.parametrize("shape", [(1, 3), (1, 5), (0, 4), (0,), (2, 2, 4)])
    def test_samples_not_k_by_4_rejected_before_stepping(
        self, tmp_path, monkeypatch, shape
    ):
        kernel_calls = []
        monkeypatch.setattr(thermal, "_solve_field", lambda *a, **k: kernel_calls.append(a))
        cfg = PipelineConfig(out_dir=str(tmp_path))
        z = np.full(shape, 650.0)
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            simulate_stress_maxima(cfg, DesignPoint(500.0, 100.0), z)
        assert kernel_calls == []

    def test_one_sample_row_may_be_1d(self, tmp_path):
        cfg = PipelineConfig(grid=SimGridConfig(16, 8), out_dir=str(tmp_path))
        z = [650.0, 825.0, 110.0, 612.0]
        d = DesignPoint(500.0, 100.0)
        assert np.array_equal(simulate_stress_maxima(cfg, d, z),
                              simulate_stress_maxima(cfg, d, [z]))

    def test_workers_match_serial_bit_for_bit(self, tmp_path):
        z = draw_material_samples(
            np.array(list(RANDOM_INPUT_BOUNDS.values())), 3, np.random.default_rng(8)
        )
        rows = np.column_stack([np.full(3, 1000.0), np.full(3, 20.0), z])
        cfg = PipelineConfig(out_dir=str(tmp_path))
        serial = pipeline._run_batch(cfg, rows, "training")
        pooled = pipeline._run_batch(replace(cfg, workers=2), rows, "training")
        for (t1, s1), (t2, s2) in zip(serial, pooled, strict=True):
            assert np.array_equal(t1, t2)
            assert np.array_equal(s1, s2)

    def test_matrices_stay_float64(self, tmp_path):
        # the kernel's fields are float32; the probe rows, the stress rows and
        # their CSVs are float64 at full precision
        cfg = PipelineConfig(M=43, grid=SimGridConfig(16, 8), out_dir=str(tmp_path))
        _, T, S = run_simulations(cfg)
        assert (T.shape, S.shape) == ((43, 31), (43, 448))
        for name, data in (("T.csv", T), ("S.csv", S)):
            assert data.dtype == np.float64
            assert not np.array_equal(data.astype(np.float32), data)
            assert np.array_equal(np.loadtxt(tmp_path / name, delimiter=","), data)


@pytest.fixture(scope="module")
def optimized(trained):
    cfg, bundle = trained
    starts = ((500.0, 160.0), (400.0, 100.0))
    results = run_optimization(cfg, bundle, starts)
    return cfg, results


class TestOptimizationStage:
    def test_reaches_unconstrained_corner(self, optimized):
        cfg, results = optimized
        for res in results:
            assert res.feasible
            assert res.energy == pytest.approx(0.04, rel=0.02)

    def test_json_document_structure(self, optimized):
        cfg, results = optimized
        with open(Path(cfg.out_dir) / "optimize.json", encoding="utf-8") as f:
            doc = json.load(f)
        assert doc["schema_version"] == 1
        assert doc["tau"] == cfg.optimize.tau
        assert doc["config_hash"] == config_hash(cfg)
        # the digest of the bundle solved on, in memory, is its file's digest
        saved = load_bundle(Path(cfg.out_dir) / "bundle.json")
        assert doc["bundle_digest"] == bundle_digest(saved)
        assert len(doc["starts"]) == 2
        energies = [s["energy"] for s in doc["starts"]]
        assert doc["best"]["energy"] == min(energies)
        assert doc["best"]["feasible"] is True

    def test_history_csv_matches_results(self, optimized):
        cfg, results = optimized
        rows = np.loadtxt(
            Path(cfg.out_dir) / "optimize_history.csv", delimiter=","
        )
        assert rows.shape[1] == 7
        assert set(np.unique(rows[:, 0])) == {0.0, 1.0}
        n0 = int((rows[:, 0] == 0).sum())
        assert n0 == results[0].history.shape[0]
        assert rows[:n0, 1:] == pytest.approx(results[0].history)

    def test_rerun_byte_identical(self, optimized, trained):
        cfg, _ = optimized
        _, bundle = trained
        path = Path(cfg.out_dir) / "optimize.json"
        before = path.read_bytes()
        run_optimization(cfg, bundle, ((500.0, 160.0), (400.0, 100.0)))
        assert path.read_bytes() == before

    def test_empty_start_list_rejected(self, trained):
        cfg, bundle = trained
        with pytest.raises(ValueError, match="initial design"):
            run_optimization(cfg, bundle, ())

    def test_bundle_config_mismatch_rejected_before_solving(
        self, trained, tmp_path, monkeypatch
    ):
        cfg, bundle = trained
        bounds = default_input_bounds()
        bounds[2] = (600.0, 700.0)
        other = replace(cfg, input_bounds=bounds, out_dir=str(tmp_path))
        solves = []
        monkeypatch.setattr(pipeline, "solve", lambda *a: solves.append(a))
        with pytest.raises(ValueError, match="bounds"):
            run_optimization(other, bundle, ((500.0, 160.0),))
        assert solves == []
        assert not (tmp_path / "optimize.json").exists()

    @pytest.mark.parametrize(
        "bad, message",
        [
            ((5000.0, 100.0), "outside bounds"),
            ((np.nan, 100.0), "outside bounds"),
            ((500.0,), "not a pair"),
            ((500.0, 160.0, 1.0), "not a pair"),
            (500.0, "not a pair"),
        ],
    )
    def test_bad_start_rejected_before_any_work(
        self, trained, tmp_path, monkeypatch, bad, message
    ):
        # the bad start comes second: the first is never drawn for or solved
        cfg, bundle = trained
        cfg = replace(cfg, out_dir=str(tmp_path))
        work = []
        monkeypatch.setattr(pipeline, "solve", lambda *a: work.append(a))
        monkeypatch.setattr(pipeline, "_frozen_row_max", lambda *a: work.append(a))
        named = re.escape(f"initial design {bad!r}")
        with pytest.raises(ValueError, match=f"{named}.*{message}"):
            run_optimization(cfg, bundle, ((500.0, 160.0), bad))
        assert work == []
        assert not (tmp_path / "optimize.json").exists()


class TestSharedDraws:
    """One run_optimization solves every start on one frozen sample set,
    built once, and each start's solve is the one it makes alone."""

    STARTS = ((500.0, 160.0), (400.0, 100.0), (600.0, 100.0))

    def assert_standalone_histories(self, cfg, bundle, results):
        for s, res in zip(self.STARTS, results):
            alone = solve(bundle, cfg.optimize, DesignPoint(*s))
            assert np.array_equal(res.history, alone.history)

    def test_feasible_starts_match_standalone_solves(self, trained, tmp_path):
        cfg, bundle = trained
        cfg = replace(cfg, out_dir=str(tmp_path))
        results = run_optimization(cfg, bundle, self.STARTS)
        assert all(r.feasible for r in results)
        self.assert_standalone_histories(cfg, bundle, results)

    def test_elastic_starts_match_standalone_solves(self, trained, tmp_path):
        # no design of the synthetic bundle reaches this melt window, so
        # every start ends in the elastic phase
        cfg, bundle = trained
        opt = replace(cfg.optimize, temp_window=(1.0e8, 2.0e8))
        cfg = replace(cfg, out_dir=str(tmp_path), optimize=opt)
        results = run_optimization(cfg, bundle, self.STARTS)
        assert not any(r.feasible for r in results)
        self.assert_standalone_histories(cfg, bundle, results)

    def test_one_basis_build_per_feature(self, trained, tmp_path, monkeypatch):
        cfg, bundle = trained
        cfg = replace(cfg, out_dir=str(tmp_path))
        calls = []
        basis = surrogate.basis

        def counting(s, eta):
            calls.append(s)
            return basis(s, eta)

        monkeypatch.setattr(surrogate, "basis", counting)
        run_optimization(cfg, bundle, self.STARTS)
        features = bundle.stress.features + bundle.temperature.features
        assert len(calls) == len(features)
        assert all(s is m.poly for s, m in zip(calls, features))


class TestValidation:
    def test_surrogate_agrees_with_synthetic_simulator(self, trained):
        cfg, bundle = trained
        cfg = replace(cfg, n_val=200)
        d = DesignPoint(v=700.0, P=60.0)
        report = validate(d, zeta_star=2.0, b=bundle, cfg=cfg)
        assert report.rel_diff == pytest.approx(
            (report.q_sim - report.q_surr) / report.q_sim
        )
        # the bundle is exact here, so only Monte Carlo noise separates
        # the two sides; bound it by the combined standard errors
        sim = simulate_stress_maxima(
            cfg,
            d,
            draw_material_samples(
                cfg.input_bounds[2:], cfg.n_val, np.random.default_rng(cfg.seed_validation)
            ),
        )
        se_sim = buffered_superquantile_se(sim, 2.0, cfg.optimize.alpha_t)
        assert abs(report.q_sim - report.q_surr) <= 3.0 * se_sim + 1e-9

    def test_self_check_mode_agrees_within_mc_error(self, trained):
        cfg, bundle = trained
        cfg = replace(cfg, n_val=400)
        d = DesignPoint(v=500.0, P=100.0)
        report = validate(d, zeta_star=1.8, b=bundle, cfg=cfg, self_check=True)
        bounds = cfg.input_bounds[2:]
        side_a = simulate_stress_maxima(
            cfg, d, draw_material_samples(
                bounds, cfg.n_val, np.random.default_rng(cfg.seed_validation)
            ),
        )
        side_b = simulate_stress_maxima(
            cfg, d, draw_material_samples(
                bounds, cfg.n_val, np.random.default_rng(cfg.seed_mc)
            ),
        )
        alpha = cfg.optimize.alpha_t
        assert report.q_sim == pytest.approx(
            buffered_superquantile(side_a, 1.8, alpha)
        )
        assert report.q_surr == pytest.approx(
            buffered_superquantile(side_b, 1.8, alpha)
        )
        se = np.hypot(
            buffered_superquantile_se(side_a, 1.8, alpha),
            buffered_superquantile_se(side_b, 1.8, alpha),
        )
        assert abs(report.q_sim - report.q_surr) <= 2.0 * se

    def test_report_persisted_with_header(self, trained):
        cfg, bundle = trained
        validate(DesignPoint(v=600.0, P=80.0), 2.0, bundle, cfg)
        with open(Path(cfg.out_dir) / "validation.json", encoding="utf-8") as f:
            doc = json.load(f)
        for key in ("d_star", "zeta_star", "q_sim", "q_surr", "rel_diff",
                    "tau", "alpha_t", "n_val", "n_mc", "self_check",
                    "config_hash", "schema_version"):
            assert key in doc

    def test_design_outside_training_box_rejected_before_simulating(
        self, trained, monkeypatch
    ):
        cfg, bundle = trained
        batches = []
        run_batch = pipeline._run_batch

        def counting(*args):
            batches.append(args)
            return run_batch(*args)

        monkeypatch.setattr(pipeline, "_run_batch", counting)
        with pytest.raises(ValueError, match="outside bounds"):
            validate(DesignPoint(v=50.0, P=100.0), 600.0, bundle, cfg)
        assert batches == []

    def test_non_finite_design_rejected_before_simulating(
        self, trained, monkeypatch
    ):
        cfg, bundle = trained
        batches = []
        monkeypatch.setattr(pipeline, "_run_batch", lambda *a: batches.append(a))
        with pytest.raises(ValueError, match="outside bounds"):
            validate(DesignPoint(v=np.nan, P=100.0), 600.0, bundle, cfg)
        assert batches == []

    def test_bundle_config_mismatch_rejected(self, trained):
        cfg, bundle = trained
        bounds = default_input_bounds()
        bounds[2] = (600.0, 700.0)
        other = replace(cfg, input_bounds=bounds)
        with pytest.raises(ValueError, match="bounds"):
            validate(DesignPoint(v=500.0, P=100.0), 2.0, bundle, other)

    @pytest.mark.parametrize("zeta", [np.nan, np.inf, -np.inf])
    def test_non_finite_zeta_rejected_before_drawing_or_simulating(
        self, trained, monkeypatch, zeta
    ):
        cfg, bundle = trained
        cfg = replace(cfg, synthetic=False)  # the real model would simulate
        calls = []
        for name in ("draw_material_samples", "simulate_batch", "_run_batch"):
            monkeypatch.setattr(pipeline, name, lambda *a, n=name: calls.append(n))
        with pytest.raises(ValueError, match="zeta must be finite"):
            validate(DesignPoint(v=500.0, P=100.0), zeta, bundle, cfg)
        assert calls == []


def write_cli_config(path: Path, out_dir: Path, optimize=(), **extra) -> Path:
    doc = {
        "M": 48,
        "n_val": 12,
        "synthetic": True,
        "out_dir": str(out_dir),
        "optimize": {
            "n_mc": 1000,
            "temp_window": [-1.0e9, 1.0e9],
            **dict(optimize),
        },
    }
    doc.update(extra)
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = write_cli_config(root / "cfg.json", root / "out")
    assert cli.main(["simulate", "--config", str(cfg_path)]) == 0
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    return root, cfg_path


def trained_dir(workspace, tmp_path, **optimize):
    """An output directory holding the workspace bundle, and a config that
    writes there with the given optimize keys."""
    out = tmp_path / "out"
    out.mkdir()
    shutil.copy(workspace[0] / "out" / "bundle.json", out)
    return out, write_cli_config(tmp_path / "cfg.json", out, optimize)


class TestCli:
    def test_train_before_simulate_fails_with_message(self, tmp_path, capsys):
        cfg_path = write_cli_config(tmp_path / "cfg.json", tmp_path / "out")
        assert cli.main(["train", "--config", str(cfg_path)]) == 1
        assert "missing artifact" in capsys.readouterr().err

    def test_train_rejects_matrices_simulated_for_another_m(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        root, _ = workspace
        out = tmp_path / "out"
        out.mkdir()
        for name in ("doe.csv", "T.csv", "S.csv"):
            shutil.copy(root / "out" / name, out)
        cfg_path = write_cli_config(tmp_path / "cfg.json", out, M=60)
        monkeypatch.setattr(pipeline, "_fit_output", lambda *a: pytest.fail("fitted"))
        assert cli.main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "48 rows" in err and "M = 60" in err and "pbfopt simulate" in err
        assert not (out / "bundle.json").exists()

    def test_optimize_is_byte_deterministic(self, workspace, tmp_path):
        out, cfg_path = trained_dir(workspace, tmp_path, seed=7)
        argv = ["optimize", "--config", str(cfg_path), "--d0", "500,160"]
        assert cli.main(argv) == 0
        path = out / "optimize.json"
        assert json.loads(path.read_text())["seed"] == 7
        first = path.read_bytes()
        assert cli.main(argv) == 0
        assert path.read_bytes() == first

    def test_validate_subcommand(self, workspace, capsys):
        root, cfg_path = workspace
        argv = ["optimize", "--config", str(cfg_path), "--d0", "500,160"]
        assert cli.main(argv) == 0
        assert cli.main(["validate", "--config", str(cfg_path)]) == 0
        assert (root / "out" / "validation.json").exists()
        assert "rel_diff" in capsys.readouterr().out

    def test_validate_explicit_design_needs_zeta(self, workspace, capsys):
        _, cfg_path = workspace
        rc = cli.main(
            ["validate", "--config", str(cfg_path), "--design", "500,100"]
        )
        assert rc == 1
        assert "zeta" in capsys.readouterr().err

    def test_validate_zeta_needs_explicit_design(self, workspace, capsys):
        _, cfg_path = workspace
        rc = cli.main(["validate", "--config", str(cfg_path), "--zeta", "600"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--zeta" in err and "--design" in err

    @pytest.mark.parametrize("zeta", ["nan", "inf", "-inf"])
    def test_validate_rejects_a_non_finite_zeta(
        self, workspace, tmp_path, capsys, zeta
    ):
        out, cfg_path = trained_dir(workspace, tmp_path)
        argv = ["validate", "--config", str(cfg_path), "--design", "500,100",
                f"--zeta={zeta}"]
        assert cli.main(argv) == 1
        assert "zeta must be finite" in capsys.readouterr().err
        assert not (out / "validation.json").exists()

    def test_validate_explicit_design_keeps_the_config_settings(self, workspace):
        root, cfg_path = workspace
        argv = ["validate", "--config", str(cfg_path), "--design", "500,100",
                "--zeta", "600"]
        assert cli.main(argv) == 0
        doc = json.loads((root / "out" / "validation.json").read_text())
        assert doc["d_star"] == [500.0, 100.0]
        assert doc["zeta_star"] == 600.0
        assert doc["config_hash"] == config_hash(load_config(cfg_path))

    def test_validate_checks_the_optimum_under_the_config_it_was_solved_with(
        self, workspace, tmp_path
    ):
        out, cfg_path = trained_dir(
            workspace, tmp_path, n_mc=500, alpha_t=0.9, seed=4
        )
        argv = ["optimize", "--config", str(cfg_path), "--d0", "500,160"]
        assert cli.main(argv) == 0
        assert cli.main(["validate", "--config", str(cfg_path)]) == 0
        opt, val = (json.loads((out / name).read_text())
                    for name in ("optimize.json", "validation.json"))
        keys = ("config_hash", "tau", "alpha_t", "n_mc")
        assert [val[k] for k in keys] == [opt[k] for k in keys]
        assert (val["alpha_t"], val["n_mc"]) == (0.9, 500)
        assert val["config_hash"] == config_hash(load_config(cfg_path))
        assert val["d_star"] == opt["best"]["d_star"]

    def test_validate_rejects_an_optimum_solved_under_another_config(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        out, cfg_path = trained_dir(workspace, tmp_path, tau=1.95)
        argv = ["optimize", "--config", str(cfg_path), "--d0", "500,160"]
        assert cli.main(argv) == 0
        other = write_cli_config(tmp_path / "other.json", out, M=60)
        monkeypatch.setattr(pipeline, "_run_batch", lambda *a: pytest.fail("simulated"))
        assert cli.main(["validate", "--config", str(other)]) == 1
        err = capsys.readouterr().err
        solved = json.loads((out / "optimize.json").read_text())["config_hash"]
        assert solved in err and config_hash(load_config(other)) in err
        assert "pbfopt optimize" in err
        assert not (out / "validation.json").exists()

    def test_validate_rejects_an_optimum_solved_on_another_bundle(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        out, cfg_path = trained_dir(workspace, tmp_path)
        argv = ["optimize", "--config", str(cfg_path), "--d0", "500,160"]
        assert cli.main(argv) == 0
        # retrain into the same directory under another config
        for name in ("doe.csv", "T.csv", "S.csv"):
            shutil.copy(workspace[0] / "out" / name, out)
        k1 = write_cli_config(tmp_path / "k1.json", out, reduction={"k_max": 1})
        assert cli.main(["train", "--config", str(k1)]) == 0
        monkeypatch.setattr(pipeline, "_run_batch", lambda *a: pytest.fail("simulated"))
        assert cli.main(["validate", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert bundle_digest(load_bundle(out / "bundle.json")) in err
        assert "bundle digest" in err and "pbfopt optimize" in err
        # an optimize.json written without a digest gets the same refusal
        doc = json.loads((out / "optimize.json").read_text())
        del doc["bundle_digest"]
        (out / "optimize.json").write_text(json.dumps(doc))
        assert cli.main(["validate", "--config", str(cfg_path)]) == 1
        assert "pbfopt optimize" in capsys.readouterr().err
        assert not (out / "validation.json").exists()

    def test_model_info(self, workspace, capsys):
        _, cfg_path = workspace
        assert cli.main(["model", "info", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "temperature features: 2" in out
        assert "stress features: 2" in out

    def test_plot_data_flags(self, workspace, tmp_path):
        root, cfg_path = workspace
        assert cli.main(["train", "--config", str(cfg_path), "--plot-data"]) == 0
        assert (root / "out" / "plot_err_temperature.csv").exists()
        assert (root / "out" / "plot_err_stress.csv").exists()
        # at tau = 1.95 the first start's early evaluations are infeasible
        out, cfg_path = trained_dir(workspace, tmp_path, tau=1.95)
        argv = ["optimize", "--config", str(cfg_path), "--d0", "500,160",
                "--d0", "400,125", "--plot-data"]
        assert cli.main(argv) == 0
        conv = np.loadtxt(out / "plot_convergence.csv", delimiter=",", ndmin=2)
        history = np.loadtxt(out / "optimize_history.csv", delimiter=",", ndmin=2)
        cfg = load_config(cfg_path).optimize
        assert cfg.tau == 1.95
        # per start, the lowest feasible energy so far, from the first
        # feasible evaluation on
        want = []
        for i in (0, 1):
            h = history[history[:, 0] == i]
            best = np.inf
            for j, (e, ok) in enumerate(zip(h[:, 4], is_feasible(cfg, h[:, 5], h[:, 6]))):
                if ok:
                    best = min(best, e)
                if np.isfinite(best):
                    want.append([i, j, best])
        assert conv.tolist() == want
        assert set(conv[:, 0]) == {0, 1}
        assert len(conv) < len(history)  # infeasible evaluations are left out

    def test_risk_subcommand(self, tmp_path, capsys):
        samples = np.arange(1.0, 101.0)
        path = tmp_path / "samples.txt"
        np.savetxt(path, samples)
        rc = cli.main(["risk", "--alpha", "0.95", "--tau", "90", str(path)])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        got = dict(line.split(": ") for line in lines)
        bpof, zeta = risk.estimate_bpof_minform(samples, 90.0)
        assert float(got["quantile"]) == pytest.approx(
            risk.estimate_quantile(samples, 0.95)
        )
        assert float(got["superquantile"]) == pytest.approx(
            risk.estimate_superquantile(samples, 0.95)
        )
        assert float(got["pof"]) == pytest.approx(risk.estimate_pof(samples, 90.0))
        assert float(got["bpof"]) == pytest.approx(bpof)
        assert float(got["zeta"]) == pytest.approx(zeta)

    def test_usage_errors_exit_2(self, capsys):
        assert cli.main(["frobnicate"]) == 2
        assert cli.main([]) == 2
        assert cli.main(["optimize", "--d0", "not-a-pair"]) == 2
        assert cli.main(["optimize", "--solver", "cobyla"]) == 2
        # a run's settings come from its config alone
        for flag in ("--alpha", "--tau", "--n-mc", "--seed", "--out"):
            assert cli.main(["optimize", flag, "1"]) == 2
        capsys.readouterr()

    def test_domain_errors_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert cli.main(["simulate", "--config", str(bad)]) == 1
        assert cli.main(["risk", "--tau", "5", str(tmp_path / "none.txt")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_mistyped_config_fails_before_simulating(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg_path = write_cli_config(tmp_path / "cfg.json", out, synthetic="false")
        assert cli.main(["simulate", "--config", str(cfg_path)]) == 1
        assert "'synthetic'" in capsys.readouterr().err
        assert not out.exists()
