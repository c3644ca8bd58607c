import importlib.util
import sys
from pathlib import Path

import pytest
import yaml

from conftest import write_matrix_config
from rewritebench import templates
from rewritebench.cli import main
from rewritebench.config import load_config
from rewritebench.errors import ConfigError
from rewritebench.models import Regime, Strategy
from rewritebench.templates import load_yaml


class TestLoadConfig:
    def test_minimal_offline_config(self, tmp_path):
        path = write_matrix_config(tmp_path)
        cfg = load_config(path)
        assert [t.task_id for t in cfg.tasks] == ["toy"]
        assert cfg.encoders[0].encoder_id == "bow"
        assert cfg.rewriters[0].rewriter_id == "ident"
        assert cfg.strategies == [Strategy.NL]
        assert cfg.regimes == [Regime.QC]
        assert cfg.k == 3 and cfg.gain == "linear"
        assert cfg.cache_dir == tmp_path / "cache"

    def test_relative_paths_resolve_against_config(self, tmp_path):
        cfg = load_config(write_matrix_config(tmp_path))
        assert cfg.tasks[0].corpus == tmp_path / "corpus.jsonl"
        assert cfg.tasks[0].corpus.exists()

    def test_cli_overrides_win(self, tmp_path):
        cfg = load_config(write_matrix_config(tmp_path), seed=99,
                          out_dir=str(tmp_path / "elsewhere"))
        assert cfg.seed == 99
        assert cfg.out_dir == tmp_path / "elsewhere"

    def test_config_hash_stable(self, tmp_path):
        path = write_matrix_config(tmp_path)
        assert load_config(path).config_hash == load_config(path).config_hash

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.yaml")

    def test_needs_tasks_and_encoders(self, tmp_path):
        path = write_matrix_config(tmp_path, extra={"tasks": []})
        with pytest.raises(ConfigError, match="task"):
            load_config(path)
        path = write_matrix_config(tmp_path, extra={"encoders": []})
        with pytest.raises(ConfigError, match="encoder"):
            load_config(path)

    def test_baseline_not_listable_as_strategy(self, tmp_path):
        path = write_matrix_config(tmp_path, strategies=("Baseline",))
        with pytest.raises(ConfigError, match="implicit"):
            load_config(path)

    def test_regime_none_rejected(self, tmp_path):
        path = write_matrix_config(tmp_path, regimes=("None",))
        with pytest.raises(ConfigError, match="reserved"):
            load_config(path)

    def test_unknown_strategy_name(self, tmp_path):
        path = write_matrix_config(tmp_path, strategies=("Summarize",))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_strategies_without_rewriter(self, tmp_path):
        path = write_matrix_config(tmp_path, rewriters=[])
        with pytest.raises(ConfigError, match="rewriter"):
            load_config(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        enc = {"encoder_id": "bow", "url": "mock://bow?dim=8",
               "tokenizer": {"kind": "word"}}
        path = write_matrix_config(tmp_path, encoders=[enc, enc])
        with pytest.raises(ConfigError, match="duplicate encoder"):
            load_config(path)

    def test_bad_gain_rejected(self, tmp_path):
        path = write_matrix_config(tmp_path, extra={"eval": {"k": 10, "gain": "log"}})
        with pytest.raises(ConfigError, match="gain"):
            load_config(path)


# --- the YAML loader -------------------------------------------------------

REPO = Path(__file__).resolve().parent.parent


def _gen():
    """``perfbench/gen.py``, imported by path without writing bytecode."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", REPO / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look it up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _config_files(root: Path) -> list[Path]:
    """The demo's config, configs shaped as the tests write them, and one
    per benchmark workload as ``perfbench/gen.py`` writes it."""
    paths = [REPO / "demo" / "config.yaml",
             write_matrix_config(root / "default"),
             write_matrix_config(
                 root / "wide", strategies=("Rephrase", "Pseudo", "NL"), regimes=("QC", "C"),
                 encoders=[{"encoder_id": n, "url": f"mock://{n}?dim=32",
                            "tokenizer": {"kind": "word"}} for n in ("bow", "hash")],
                 rewriters=[{"rewriter_id": "tbl", "url": f"mock://table?file={root}/t.json"}],
                 template_catalog=str(root / "templates"),
                 extra={"parallelism": 2, "skip_threshold": -0.05,
                        "endpoint": {"embed_batch_size": 1, "retries": 0, "backoff_s": 0.05},
                        "eval": {"k": 10, "gain": "exp"}})]
    gen = _gen()
    for workload, shape in gen.WORKLOADS.items():
        inputs = gen.Inputs(root=root / workload, config=root / workload / "config.yaml",
                            table=root / workload / "rewrites.json", shape=shape)
        inputs.root.mkdir()
        gen.write_config(inputs, 3, encoder_url="http://127.0.0.1:8080/v1/embeddings",
                         rewriter_url="mock://table?file=rewrites.json")
        paths.append(inputs.config)
    return paths


def test_libyaml_loader_reads_every_config_as_the_python_loader(tmp_path, monkeypatch):
    if yaml.__with_libyaml__:
        assert templates._YAML_LOADER is yaml.CSafeLoader
    for path in _config_files(tmp_path):
        text = path.read_text(encoding="utf-8")
        assert load_yaml(text) == yaml.safe_load(text), path
        loaded = {}
        for loader in (yaml.SafeLoader, templates._YAML_LOADER):
            monkeypatch.setattr(templates, "_YAML_LOADER", loader)
            cfg = load_config(path)
            loaded[loader] = (cfg.raw, cfg.config_hash)
        assert len(set(map(repr, loaded.values()))) == 1, path
    for path in sorted(templates._DATA_DIR.glob("*.md")):
        front_matter = path.read_text(encoding="utf-8").split("---", 2)[1]
        assert load_yaml(front_matter) == yaml.safe_load(front_matter), path


@pytest.mark.parametrize("text", ["tasks: [1, 2", "seed: 7: 8", "{", "x:\n\t- 1",
                                  "a: !!python/object:os.system 1"])
def test_malformed_yaml_is_a_config_error(tmp_path, text):
    path = tmp_path / "config.yaml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match="cannot parse config"):
        load_config(path)
    assert main(["--config", str(path), "run-matrix"]) == 2


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_a_non_finite_skip_threshold_is_a_config_error(tmp_path, value):
    path = write_matrix_config(tmp_path, extra={"skip_threshold": value})
    with pytest.raises(ConfigError, match="skip_threshold must be finite"):
        load_config(path)
    assert main(["--config", str(path), "advise"]) == 2
