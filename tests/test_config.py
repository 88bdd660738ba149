"""Configuration parsing, initial-data generation, record serialization."""

import json
import math

import numpy as np
import pytest

from nspbox.config import ConfigError, DEFAULTS, config_help, parse_config
from nspbox.energy import EnergyReport, initial_energy
from nspbox.initial_data import make_initial_data
from nspbox.lp import hybrid_norm
from nspbox.records import ALPHA_CUTOFF, CSV_COLUMNS, read_records, write_records
from nspbox.spectral import l2_norm
from nspbox.model import FluidParams


FLOAT_KEYS = [key for key, (caster, _, _) in DEFAULTS.items() if caster is float]


class TestParseConfig:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_rejected_with_line(self, key, value):
        with pytest.raises(ConfigError, match=f"^line 2: invalid value for {key}: non-finite value '{value}'$"):
            parse_config(f"# comment\n{key} = {value}\n")

    def test_empty_input_gives_documented_defaults(self):
        cfg = parse_config("")
        assert cfg.grid.dim == 3
        assert cfg.grid.size == 32
        assert cfg.grid.length == pytest.approx(2.0 * math.pi)
        assert cfg.params.mu == 1.0
        assert cfg.params.lam == 0.0
        assert cfg.params.rho_bar == 1.0
        assert cfg.stepper.dt == 1e-3
        assert cfg.stepper.n == 32.0
        assert cfg.init_kind == "random-band"
        assert cfg.monitor_stride == 10
        assert cfg.bound == 16.0

    def test_negative_viscosity_rejected_with_constraint_name(self):
        with pytest.raises(ConfigError, match="mu > 0"):
            parse_config("params.mu = -1")

    def test_combined_viscosity_rejected(self):
        with pytest.raises(ConfigError, match="lambda"):
            parse_config("params.mu = 1.0\nparams.lambda = -3.0")

    def test_unknown_key_carries_line_number(self):
        # an old config that names a checkpoint input fails loudly, at its line
        for key in ("nope.key", "init.file"):
            with pytest.raises(ConfigError, match=f"^line 3: unknown key '{key}'$"):
                parse_config(f"grid.M = 16\n# comment\n{key} = x\n")

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("grid.M = 16\ngrid.L 6.28\n")

    def test_bad_value_carries_key_and_line(self):
        with pytest.raises(ConfigError, match="grid.M"):
            parse_config("grid.M = sixteen")

    def test_removed_dealias_key_rejected(self):
        # products are always dealiased; an old config that sets the switch fails loudly
        with pytest.raises(ConfigError, match="line 2: unknown key 'stepper.dealias'"):
            parse_config("grid.M = 16\nstepper.dealias = true\n")

    def test_removed_scheme_key_rejected(self):
        # ETDRK2 is the only integrator; an old config that names one fails loudly
        with pytest.raises(ConfigError, match="line 2: unknown key 'stepper.scheme'"):
            parse_config("grid.M = 16\nstepper.scheme = etdrk2\n")

    def test_non_positive_bound_factor_named_with_line(self):
        with pytest.raises(ConfigError, match="^line 2: energy.bound: bound factor must be positive$") as err:
            parse_config("grid.M = 16\nenergy.bound = -1\n")
        assert err.value.line == 2

    @pytest.mark.parametrize("key", ["energy.A", "energy.c_tilde"])
    def test_removed_bound_factor_keys_rejected(self, key):
        # the threshold is the one factor energy.bound; an old config that sets A or c~ fails loudly
        with pytest.raises(ConfigError, match=f"^line 2: unknown key '{key}'$") as err:
            parse_config(f"grid.M = 16\n{key} = 16\n")
        assert err.value.line == 2

    @pytest.mark.parametrize("dt, t_end", [(0.3, 1.0), (0.3, 0.1), (0.02, 1.21)])
    def test_fractional_step_count_rejected_with_stepper_prefix(self, dt, t_end):
        with pytest.raises(ConfigError, match="^stepper: t_end must be a whole number of steps"):
            parse_config(f"stepper.dt = {dt}\nstepper.t_end = {t_end}\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("grid.M = 16\ngrid.M = 32\n")

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError, match="scheme"):
            parse_config("stepper.scheme = leapfrog")

    def test_unknown_init_kind_rejected(self):
        # there is no checkpoint format, so no kind reads a file; an old config fails at its line
        for kind in ("vortex", "file"):
            with pytest.raises(ConfigError, match=f"^line 2: init.kind: expected one of .*, got '{kind}'$"):
                parse_config(f"grid.M = 16\ninit.kind = {kind}\n")

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("\n# full line comment\ngrid.M = 16  # trailing comment\n\n")
        assert cfg.grid.size == 16

    def test_truncation_radius_default_covers_lattice(self):
        cfg = parse_config("grid.M = 64")
        assert cfg.stepper.n == 64.0

    def test_help_lists_every_key(self):
        text = config_help()
        for key in DEFAULTS:
            assert key in text


class TestInitialData:
    def test_zero_amplitude_gives_equilibrium(self):
        cfg = parse_config("grid.M = 16\ninit.amplitude = 0")
        s = make_initial_data(cfg)
        assert l2_norm(s.h) == 0.0 and l2_norm(s.c) == 0.0 and l2_norm(s.I) == 0.0

    def test_amplitude_is_hit_exactly(self):
        cfg = parse_config("grid.M = 16\ninit.amplitude = 2.5e-3\ninit.band_hi = 1")
        s = make_initial_data(cfg)
        assert initial_energy(s) == pytest.approx(2.5e-3, rel=1e-12)

    def test_seeded_generation_is_bitwise_deterministic(self):
        text = "grid.M = 16\ninit.kind = random-band\ninit.seed = 7"
        a = make_initial_data(parse_config(text))
        b = make_initial_data(parse_config(text))
        assert np.array_equal(a.h.coef, b.h.coef)
        assert np.array_equal(a.c.coef, b.c.coef)
        assert np.array_equal(a.I.coef, b.I.coef)

    def test_single_mode_kind_matches_norm_oracle(self):
        cfg = parse_config("grid.M = 16\ninit.kind = single-mode\ninit.amplitude = 1e-3")
        s = make_initial_data(cfg)
        assert l2_norm(s.c) == 0.0 and l2_norm(s.I) == 0.0
        # all content sits in the single density mode; its hybrid norm is E(0)
        assert hybrid_norm(s.h, (0.0, 2.5)) == pytest.approx(1e-3, rel=1e-12)

    def test_empty_band_rejected(self):
        with pytest.raises(ValueError, match="band"):
            make_initial_data(parse_config("grid.M = 16\ninit.band_lo = 9\ninit.band_hi = 9"))

    def test_excessive_amplitude_rejected(self):
        cfg = parse_config("grid.M = 16\ninit.kind = single-mode\ninit.amplitude = 50.0")
        with pytest.raises(ValueError, match="density"):
            make_initial_data(cfg)

    def test_smooth_random_kind(self):
        cfg = parse_config("grid.N = 2\ngrid.M = 16\ninit.kind = smooth-random\ninit.amplitude = 1e-2")
        s = make_initial_data(cfg)
        assert initial_energy(s) == pytest.approx(1e-2, rel=1e-12)

    # the zero mode lies outside the truncation annulus 1/n <= |xi| <= n, so the
    # data carry no mean and the nonlinear driver's mass check reads the final state alone
    @pytest.mark.parametrize("amplitude", [0.0, 1e-3])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("kind", ["single-mode", "random-band", "smooth-random"])
    def test_generated_zero_modes_are_exactly_zero(self, kind, dim, amplitude):
        cfg = parse_config(f"grid.N = {dim}\ngrid.M = 16\ninit.kind = {kind}\ninit.amplitude = {amplitude}")
        s = make_initial_data(cfg)
        for f in (s.h, s.c, s.I, s.theta()):
            assert np.all(f.zero_mode() == 0.0)


def sample_records() -> list[EnergyReport]:
    """Four reports; shell 1's alpha_k^2 lies below the records' cutoff."""
    ks, zeros = np.array([-1, 1, 2]), np.zeros(3)
    return [
        EnergyReport(
            t=0.1 * i,
            ks=ks,
            alpha_sq=np.array([0.125, 1e-20, 1e-9]),
            norm_h=zeros,
            norm_c=zeros,
            hybrid_h=1.0 / (i + 1),
            hybrid_c=0.5,
            hybrid_I=0.25,
            hybrid_u=0.75,
            v_accum=0.01 * i,
            e_value=1.0 + 0.1 * i,
            prim_norm=2.0,
            prim_ratio=3.0,
            positivity=True,
            guarded=bool(i % 2),
        )
        for i in range(4)
    ]


def sample_rows() -> list[dict]:
    """The records of `sample_records`, written out by hand."""
    return [
        {
            "t": 0.1 * i,
            "hybrid_h": 1.0 / (i + 1),
            "hybrid_c": 0.5,
            "hybrid_I": 0.25,
            "hybrid_u": 0.75,
            "V": 0.01 * i,
            "E": 1.0 + 0.1 * i,
            "alpha": [[-1, 0.125], [2, 1e-9]],
            "positivity": True,
            "guarded": bool(i % 2),
        }
        for i in range(4)
    ]


class TestRecords:
    def test_empty_list_gives_empty_file(self, tmp_path):
        path = tmp_path / "records.ndjson"
        write_records([], path)
        assert path.read_text() == ""
        assert (tmp_path / "records.ndjson.csv").read_text().splitlines() == [",".join(CSV_COLUMNS)]

    def test_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "records.ndjson"
        write_records(sample_records(), path)
        assert read_records(path) == sample_rows()

    def test_key_order_is_fixed(self, tmp_path):
        path = tmp_path / "records.ndjson"
        write_records(sample_records(), path)
        first = json.loads(path.read_text().splitlines()[0], object_pairs_hook=list)
        assert [k for k, _ in first] == [
            "t", "hybrid_h", "hybrid_c", "hybrid_I", "hybrid_u", "V", "E",
            "alpha", "positivity", "guarded",
        ]

    def test_csv_schema_is_config_independent(self, tmp_path):
        a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        write_records(sample_records(), a)
        write_records(sample_records()[:1], b)
        header_a = (tmp_path / "a.ndjson.csv").read_text().splitlines()[0]
        header_b = (tmp_path / "b.ndjson.csv").read_text().splitlines()[0]
        assert header_a == header_b == ",".join(CSV_COLUMNS)

    def test_full_precision_floats(self, tmp_path):
        value = 0.1 + 0.2  # not representable prettily
        rec = sample_records()[0]
        rec.hybrid_h = value
        path = tmp_path / "records.ndjson"
        write_records([rec], path)
        assert read_records(path)[0]["hybrid_h"] == value

    def test_non_increasing_times_rejected(self, tmp_path):
        recs = sample_records()
        recs[2].t = recs[1].t
        with pytest.raises(ValueError, match="increasing"):
            write_records(recs, tmp_path / "records.ndjson")

    def test_write_failure_surfaces_path(self, tmp_path):
        target = tmp_path / "missing" / "records.ndjson"
        with pytest.raises(OSError, match="records.ndjson"):
            write_records(sample_records(), target)

    def test_driver_records_match_deep_copy_serialization(self, tmp_path, monkeypatch):
        # each NDJSON line of a seeded driver run is the json.dumps of a row built here from the
        # monitor's report in memory, and a second run writes both files byte for byte
        from nspbox import records
        from nspbox.experiments import experiment_nonlinear

        written = []
        plain = records.write_records

        def capture(recs, path):
            written.append(recs)
            plain(recs, path)

        monkeypatch.setattr(records, "write_records", capture)
        cfg = parse_config("grid.M = 16\nstepper.dt = 1e-3\nstepper.t_end = 0.01\nmonitor.stride = 2\n")
        experiment_nonlinear(cfg, tmp_path / "a")
        experiment_nonlinear(cfg, tmp_path / "b")
        recs = written[0]
        assert len(recs) > 2 and all(np.any(r.alpha_sq > ALPHA_CUTOFF) for r in recs)
        assert all(r.positivity is True and r.guarded is False for r in recs)
        rows = [
            {
                "t": r.t,
                "hybrid_h": r.hybrid_h,
                "hybrid_c": r.hybrid_c,
                "hybrid_I": r.hybrid_I,
                "hybrid_u": r.hybrid_u,
                "V": r.v_accum,
                "E": r.e_value,
                "alpha": [[k, a] for k, a in zip(r.ks.tolist(), r.alpha_sq.tolist()) if a > ALPHA_CUTOFF],
                "positivity": r.positivity,
                "guarded": r.guarded,
            }
            for r in recs
        ]
        lines = (tmp_path / "a" / "records.ndjson").read_text().splitlines()
        assert lines == [json.dumps(row) for row in rows]
        for name in ("records.ndjson", "records.ndjson.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_driver_csv_cells_are_the_ndjson_numbers(self, tmp_path):
        # the driver's values are numpy scalars; every CSV cell must still parse as a number
        from nspbox.experiments import experiment_nonlinear

        cfg = parse_config("grid.M = 16\nstepper.dt = 1e-3\nstepper.t_end = 0.01\nmonitor.stride = 2\n")
        experiment_nonlinear(cfg, tmp_path)
        rows = (tmp_path / "records.ndjson.csv").read_text().splitlines()
        lines = (tmp_path / "records.ndjson").read_text().splitlines()
        assert rows[0] == ",".join(CSV_COLUMNS) and len(rows) == len(lines) + 1 > 3
        for row, line in zip(rows[1:], lines):
            record = json.loads(line)
            for col, cell in zip(CSV_COLUMNS, row.split(",")):
                assert float(cell) == record[col], (col, cell)

    def test_failed_write_keeps_previous_files(self, tmp_path):
        path = tmp_path / "records.ndjson"
        write_records(sample_records(), path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        recs = sample_records()
        recs[2].positivity = object()  # not serializable: fails after two lines
        with pytest.raises(TypeError):
            write_records(recs, path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestParamsEquality:
    def test_equal_fields_compare_equal(self):
        a = FluidParams(mu=1.0, lam=0.0, rho_bar=1.0, dim=3)
        b = FluidParams(mu=1.0, lam=0.0, rho_bar=1.0, dim=3)
        assert a == b
