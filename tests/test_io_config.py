import dataclasses
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavedamp.cli import main
from wavedamp.config import MAX_DAMPING_SAMPLES, ExperimentConfig, load_config, parse_config
from wavedamp.errors import ConfigError
from wavedamp.forward import DT_FACTOR, solve
from wavedamp.grid import Grid2D
from wavedamp.io import (
    load_damping_csv,
    read_trace_binary,
    save_damping_csv,
    write_csv,
    write_manifest,
    write_trace_binary,
    sha256_file,
)
from wavedamp.spectral import DampingPair, ModeIndex, SampledFunction1D, mode_shape


@pytest.fixture(scope="module")
def short_trace():
    grid = Grid2D(33)
    u0 = grid.sample(lambda x, y: mode_shape(ModeIndex(0, 0), x, y))
    return solve(u0, np.zeros_like(u0), DampingPair.constant(0.3), grid, 0.5).trace


class TestCsv:
    def test_header_and_lf_endings(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["a", "b"], [(1, 2.5), (3, 0.1)])
        raw = path.read_bytes()
        assert raw == b"a,b\n1,2.5\n3,0.1\n"

    def test_float_round_trip(self, tmp_path):
        values = [0.1, 1 / 3, 1e-17, 12345.6789]
        path = write_csv(tmp_path / "f.csv", ["v"], [(v,) for v in values])
        lines = path.read_text().splitlines()[1:]
        assert [float(line) for line in lines] == values


class TestTraceBinary:
    def test_bit_exact_round_trip(self, tmp_path, short_trace):
        path = write_trace_binary(tmp_path / "trace.bin", short_trace)
        back = read_trace_binary(path)
        assert back["n"] == short_trace.n
        assert back["dt"] == short_trace.dt
        assert back["steps"] == short_trace.times.shape[0] - 1
        assert back["sides"].shape == short_trace.sides.shape
        assert back["sides"].tobytes() == short_trace.sides.tobytes()


class TestDampingCsv:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        comp = SampledFunction1D(np.abs(rng.standard_normal(65)))
        path = save_damping_csv(tmp_path / "a1.csv", comp)
        back = load_damping_csv(path)
        assert np.array_equal(back.values, comp.values)

    def test_rejects_bad_header(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n0,1\n")
        with pytest.raises(ConfigError):
            load_damping_csv(bad)

    def test_rejects_non_utf8_bytes(self, tmp_path):
        bad = tmp_path / "bad3.csv"
        bad.write_bytes(b"s,value\n0.0,1\n\xff\xfe\n")
        with pytest.raises(ConfigError, match="UTF-8"):
            load_damping_csv(bad)

    def test_rejects_nonuniform_nodes(self, tmp_path):
        bad = tmp_path / "bad2.csv"
        bad.write_text("s,value\n0.0,1\n0.3,1\n1.0,1\n")
        with pytest.raises(ConfigError):
            load_damping_csv(bad)

    @pytest.mark.parametrize("rows", [MAX_DAMPING_SAMPLES, MAX_DAMPING_SAMPLES + 1])
    def test_row_cap(self, tmp_path, rows):
        comp = SampledFunction1D(np.full(rows, 0.1))
        path = save_damping_csv(tmp_path / "a1.csv", comp)
        if rows <= MAX_DAMPING_SAMPLES:
            assert np.array_equal(load_damping_csv(path).values, comp.values)
        else:
            with pytest.raises(ConfigError, match="rows") as err:
                load_damping_csv(path)
            assert err.value.field == "damping_csv"


class TestManifest:
    def test_lists_every_artifact_with_checksums(self, tmp_path):
        (tmp_path / "a.csv").write_text("x\n1\n")
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "b.json").write_text("{}\n")
        manifest = write_manifest(tmp_path, "n = 33\n", "0.1.0", {"solve": 1.23456})
        data = json.loads(manifest.read_text())
        assert set(data["files"]) == {"a.csv", "sub/b.json"}
        for rel, entry in data["files"].items():
            assert entry["sha256"] == sha256_file(tmp_path / rel)
        assert "manifest.json" not in data["files"]


class TestConfig:
    def test_defaults_validate(self):
        ExperimentConfig().validate()

    def test_parse_round_trip(self):
        cfg = ExperimentConfig(n=33, tau=2.0, damping_kind="constant", damping_base=0.3)
        parsed = parse_config(cfg.canonical_text())
        assert parsed == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_config("nn = 33\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("n = 33\nn = 65\n")

    def test_comments_and_blanks(self):
        cfg = parse_config("# heading\n\nn = 33  # inline\n")
        assert cfg.n == 33

    def test_range_validation_names_field(self):
        for text, field in [
            ("n = 5\n", "n"),
            ("guard = 0.7\n", "guard"),
            ("dt_factor = 0.9\n", "dt_factor"),
            ("damping_samples = 18\n", "damping_samples"),
            (f"damping_samples = {MAX_DAMPING_SAMPLES + 1}\n", "damping_samples"),
            ("calib_member = -2\n", "calib_member"),
            ("calib_member = 4\n", "calib_member"),
        ]:
            with pytest.raises(ConfigError) as err:
                parse_config(text)
            assert err.value.field == field

    def test_range_ends_are_accepted(self):
        cfg = parse_config(f"damping_samples = {MAX_DAMPING_SAMPLES}\ncalib_member = -1\n")
        assert (cfg.damping_samples, cfg.calib_member) == (MAX_DAMPING_SAMPLES, -1)
        assert parse_config("calib_member = 3\n").calib_member == 3

    def test_the_step_fraction_is_fixed(self, tmp_path, capsys):
        # every solve steps at forward.DT_FACTOR; the key stays so that older configs parse
        cfg = tmp_path / "config.cfg"
        cfg.write_text("n = 17\ntau = 0.5\ndt_factor = 0.25\n")
        assert main(["forward", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "'dt_factor'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()
        assert parse_config("dt_factor = 0.5\n").dt_factor == DT_FACTOR
        ledger = sorted((Path(__file__).parent / "data" / "ledger").glob("*/config.cfg"))
        assert len(ledger) == 4
        for path in ledger:
            assert load_config(path).dt_factor == DT_FACTOR

    def test_type_errors_name_field(self):
        with pytest.raises(ConfigError) as err:
            parse_config("n = many\n")
        assert err.value.field == "n"

    def test_epsilon_list(self):
        cfg = parse_config("sweep_epsilons = 0.5, 0.25\n")
        assert cfg.sweep_epsilons == (0.5, 0.25)

    def test_damping_builders(self):
        zero = parse_config("damping_kind = zero\n").build_damping()
        assert zero.minimum() == 0.0
        const = parse_config("damping_kind = constant\ndamping_base = 0.3\n").build_damping()
        assert const.minimum() == pytest.approx(0.3)
        affine = parse_config(
            "damping_kind = affine\ndamping_base = 0.1\ndamping_slope1 = 0.05\n"
        ).build_damping()
        assert affine.a1.values[-1] == pytest.approx(0.15)

    def test_csv_damping_round_trip(self, tmp_path):
        pair = DampingPair.from_callables(lambda s: 0.2 + 0.1 * s, lambda s: 0.2 + 0.05 * s, n=65)
        p1 = save_damping_csv(tmp_path / "a1.csv", pair.a1)
        p2 = save_damping_csv(tmp_path / "a2.csv", pair.a2)
        cfg = parse_config(
            f"damping_kind = csv\ndamping_csv1 = {p1}\ndamping_csv2 = {p2}\n")
        built = cfg.build_damping()
        assert np.array_equal(built.a1.values, pair.a1.values)
        assert np.array_equal(built.a2.values, pair.a2.values)


CONFIG_KEYS = [f.name for f in dataclasses.fields(ExperimentConfig)]
FLOAT_KEYS = [f.name for f in dataclasses.fields(ExperimentConfig) if f.type in ("float", float)]


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(CONFIG_KEYS),
       raw=st.one_of(
           st.text(st.characters(blacklist_categories=("Cc", "Zl", "Zp")), max_size=30),
           st.sampled_from(["nan", "inf", "-inf", "1e400", "-0", "1_0", "0x10", ",", "nan,0.2"])))
def test_any_value_parses_or_names_its_field(key, raw):
    # parsing only: nothing here builds a damping or runs a command
    try:
        cfg = parse_config(f"{key} = {raw}\n")
    except ConfigError as err:
        assert err.field in CONFIG_KEYS or err.field.startswith("line ")
        return
    assert all(math.isfinite(getattr(cfg, name)) for name in FLOAT_KEYS)
    assert all(math.isfinite(eps) for eps in cfg.sweep_epsilons)


GARBLE_CHARS = st.one_of(
    st.sampled_from(list("=#,.-_+e 0123456789\t\n\r\x0b\x0c\x1c\x85\u2028") + CONFIG_KEYS),
    st.characters(blacklist_categories=("Cs",)),
)
VALID_TEXT = ("n = 33\ntau = 1.5  # seconds\ndamping_kind = affine\ndamping_base = 0.2\n"
              "sweep_epsilons = 0.5, 1.0\n# comment = 1\nseed = 7\nprobe_budget = 2\n")


@st.composite
def garbled_config_text(draw):
    """A valid config text after a few edits: inserts, deletions, duplicated or swapped spans."""
    text = VALID_TEXT
    for _ in range(draw(st.integers(1, 6))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 12)))
        edit = draw(st.sampled_from(["insert", "delete", "duplicate", "swap"]))
        if edit == "insert":
            text = text[:i] + "".join(draw(st.lists(GARBLE_CHARS, min_size=1, max_size=4))) + text[i:]
        elif edit == "delete":
            text = text[:i] + text[j:]
        elif edit == "duplicate":
            text = text[:j] + text[i:j] + text[j:]
        else:
            k = draw(st.integers(0, len(text)))
            text = text[:i] + text[k:k + 12] + text[j:]
    return text


@settings(max_examples=300, deadline=None)
@given(text=garbled_config_text())
def test_any_garbled_text_parses_or_exits_2_naming_a_field_or_line(text):
    # a text that parses is not run; one that does not must stop the CLI with exit 2
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text(text, encoding="utf-8")
        try:
            cfg = load_config(path)
        except ConfigError as err:
            assert err.field in CONFIG_KEYS or re.fullmatch(r"line \d+", err.field), err.field
            assert main(["forward", "--config", str(path), "--out", str(Path(tmp) / "x")]) == 2
            assert not (Path(tmp) / "x").exists()
            return
    assert all(math.isfinite(getattr(cfg, name)) for name in FLOAT_KEYS)
    assert all(math.isfinite(eps) for eps in cfg.sweep_epsilons)
