"""Validation tests for every configuration dataclass."""

import pytest

from repro.config import (
    CrfConfig,
    LstmConfig,
    PipelineConfig,
    SeedConfig,
    SemanticConfig,
    VetoConfig,
)
from repro.errors import ConfigError


class TestSeedConfig:
    def test_defaults_are_valid(self):
        SeedConfig()

    @pytest.mark.parametrize("threshold", [-0.1, 1.5])
    def test_rejects_bad_threshold(self, threshold):
        with pytest.raises(ConfigError):
            SeedConfig(aggregation_threshold=threshold)

    def test_rejects_bad_damping(self):
        with pytest.raises(ConfigError):
            SeedConfig(aggregation_damping=2.0)

    def test_rejects_zero_page_frequency(self):
        with pytest.raises(ConfigError):
            SeedConfig(min_value_page_frequency=0)

    def test_rejects_zero_attribute_pages(self):
        with pytest.raises(ConfigError):
            SeedConfig(min_attribute_pages=0)

    def test_rejects_negative_diversification(self):
        with pytest.raises(ConfigError):
            SeedConfig(diversification_k=-1)

    def test_zero_diversification_allowed(self):
        config = SeedConfig(diversification_k=0, diversification_n=0)
        assert config.diversification_k == 0


class TestVetoConfig:
    def test_defaults_match_paper(self):
        config = VetoConfig()
        assert config.keep_top_share == 0.8
        assert config.max_value_chars == 30

    def test_rejects_zero_share(self):
        with pytest.raises(ConfigError):
            VetoConfig(keep_top_share=0.0)

    def test_full_share_allowed(self):
        VetoConfig(keep_top_share=1.0)

    def test_rejects_zero_length(self):
        with pytest.raises(ConfigError):
            VetoConfig(max_value_chars=0)


class TestSemanticConfig:
    def test_zero_core_size_means_unrestricted(self):
        assert SemanticConfig(core_size=0).core_size == 0

    def test_rejects_negative_core(self):
        with pytest.raises(ConfigError):
            SemanticConfig(core_size=-1)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ConfigError):
            SemanticConfig(accept_threshold=1.2)

    def test_rejects_tiny_embedding(self):
        with pytest.raises(ConfigError):
            SemanticConfig(embedding_dim=1)

    def test_rejects_zero_epochs(self):
        with pytest.raises(ConfigError):
            SemanticConfig(embedding_epochs=0)


class TestCrfConfig:
    def test_rejects_negative_window(self):
        with pytest.raises(ConfigError):
            CrfConfig(window=-1)

    def test_rejects_negative_regularisation(self):
        with pytest.raises(ConfigError):
            CrfConfig(l1=-0.1)
        with pytest.raises(ConfigError):
            CrfConfig(l2=-0.1)

    def test_rejects_zero_iterations(self):
        with pytest.raises(ConfigError):
            CrfConfig(max_iterations=0)

    def test_zero_window_is_valid(self):
        assert CrfConfig(window=0).window == 0


class TestLstmConfig:
    def test_rejects_zero_epochs(self):
        with pytest.raises(ConfigError):
            LstmConfig(epochs=0)

    def test_rejects_dropout_of_one(self):
        with pytest.raises(ConfigError):
            LstmConfig(dropout=1.0)

    def test_rejects_nonpositive_learning_rate(self):
        with pytest.raises(ConfigError):
            LstmConfig(learning_rate=0.0)

    @pytest.mark.parametrize(
        "field", ["char_dim", "char_hidden", "word_dim", "word_hidden"]
    )
    def test_rejects_zero_dims(self, field):
        with pytest.raises(ConfigError):
            LstmConfig(**{field: 0})


class TestPipelineConfig:
    def test_defaults_match_paper(self):
        config = PipelineConfig()
        assert config.iterations == 5
        assert config.tagger == "crf"
        assert config.enable_semantic_cleaning
        assert config.enable_syntactic_cleaning
        assert config.enable_diversification

    def test_rejects_unknown_tagger(self):
        with pytest.raises(ConfigError):
            PipelineConfig(tagger="transformer")

    def test_rejects_zero_iterations(self):
        with pytest.raises(ConfigError):
            PipelineConfig(iterations=0)

    def test_without_cleaning_disables_both_stages(self):
        config = PipelineConfig().without_cleaning()
        assert not config.enable_semantic_cleaning
        assert not config.enable_syntactic_cleaning
        assert config.enable_diversification  # untouched

    def test_with_tagger_switches_backend(self):
        config = PipelineConfig().with_tagger("lstm")
        assert config.tagger == "lstm"
        assert config.iterations == PipelineConfig().iterations


class TestResourceLimits:
    """--memory-budget / --pool-workers validation (PipelineConfig and
    ServeConfig) plus the environment-fault FaultSpec kinds."""

    def test_defaults_are_unlimited(self):
        config = PipelineConfig()
        assert config.memory_budget_mb is None
        assert config.pool_workers is None

    @pytest.mark.parametrize("value", [0, -1, -128])
    def test_rejects_nonpositive_memory_budget(self, value):
        with pytest.raises(ConfigError, match="memory_budget_mb"):
            PipelineConfig(memory_budget_mb=value)

    @pytest.mark.parametrize("value", [0, -1])
    def test_rejects_nonpositive_pool_workers(self, value):
        with pytest.raises(ConfigError, match="pool_workers"):
            PipelineConfig(pool_workers=value)

    def test_positive_limits_accepted(self):
        config = PipelineConfig(memory_budget_mb=512, pool_workers=2)
        assert config.memory_budget_mb == 512
        assert config.pool_workers == 2

    def test_serve_memory_budget_validated(self):
        from repro.config import ServeConfig

        assert ServeConfig().memory_budget_mb is None
        assert ServeConfig(memory_budget_mb=256).memory_budget_mb == 256
        with pytest.raises(ConfigError, match="memory_budget_mb"):
            ServeConfig(memory_budget_mb=0)

    def test_serve_batch_max_wait_is_a_zero_only_shim(self):
        """The batch linger is gone: the old field still accepts the
        bench's ``batch_max_wait_seconds=0`` and rejects any linger."""
        from repro.config import ServeConfig

        assert ServeConfig(batch_max_wait_seconds=0).batch_max_wait_seconds == 0
        with pytest.raises(ConfigError, match="batch_max_wait_seconds"):
            ServeConfig(batch_max_wait_seconds=0.005)


class TestEnvironmentFaultSpecs:
    """The four environment fault kinds validate their targets up
    front — a typo'd stage must fail at plan build, not silently
    never fire."""

    def _spec(self, **kwargs):
        from repro.runtime import FaultSpec

        return FaultSpec(**kwargs)

    @pytest.mark.parametrize(
        "stage", ["shard_prep", "shard_tag", "shard_prep:0003"]
    )
    def test_worker_kill_accepts_pool_stages(self, stage):
        spec = self._spec(stage=stage, kind="worker_kill")
        assert spec.kind == "worker_kill"

    @pytest.mark.parametrize(
        "stage", ["tagger_train", "storage", "shardprep"]
    )
    def test_worker_kill_rejects_other_stages(self, stage):
        with pytest.raises(ConfigError, match="worker_kill"):
            self._spec(stage=stage, kind="worker_kill")

    @pytest.mark.parametrize(
        "stage", ["storage", "prep_cache_write", "checkpoint_write"]
    )
    def test_disk_full_accepts_storage_ops(self, stage):
        assert self._spec(stage=stage, kind="disk_full").stage == stage

    def test_disk_full_rejects_pipeline_stages(self):
        with pytest.raises(ConfigError, match="storage ops"):
            self._spec(stage="tagger_train", kind="disk_full")

    def test_slow_disk_requires_positive_delay(self):
        with pytest.raises(ConfigError, match="delay_seconds"):
            self._spec(stage="storage", kind="slow_disk")
        spec = self._spec(
            stage="storage", kind="slow_disk", delay_seconds=0.01
        )
        assert spec.delay_seconds == 0.01

    def test_mem_pressure_requires_positive_bytes(self):
        with pytest.raises(ConfigError, match="pressure_bytes"):
            self._spec(stage="governor", kind="mem_pressure")
        with pytest.raises(ConfigError, match="pressure_bytes"):
            self._spec(
                stage="governor", kind="mem_pressure", pressure_bytes=-1
            )
        spec = self._spec(
            stage="governor", kind="mem_pressure", pressure_bytes=1024
        )
        assert spec.pressure_bytes == 1024
