"""The squash configuration: every knob, defined exactly once."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro import settings as _settings
from repro.compress.codec import CodecConfig
from repro.core.costmodel import CostModel
from repro.core.descriptor import BufferStrategy, RestoreStubScheme
from repro.program.layout import TEXT_BASE

__all__ = ["SquashConfig"]


@dataclass(frozen=True)
class SquashConfig:
    """Every knob of the squash pipeline."""

    #: Cold-code threshold θ (Section 5).  0.0 compresses only
    #: never-executed code; 1.0 considers everything cold.
    theta: float = 0.0
    cost: CostModel = field(default_factory=CostModel)
    strategy: BufferStrategy = BufferStrategy.OVERWRITE
    restore_scheme: RestoreStubScheme = RestoreStubScheme.RUNTIME
    codec: CodecConfig = field(default_factory=CodecConfig)
    #: Pack small regions together (Section 4).
    pack: bool = True
    #: Unswitch cold jump-table dispatches (Section 6.2).
    unswitch: bool = True
    #: Skip decoding when the requested region is already buffered.
    buffer_caching: bool = True
    #: Region construction (a key of
    #: :data:`repro.core.plan.REGION_STRATEGIES`): "dfs" (Section 4)
    #: or "whole_function" (the future-work alternative of Section 9).
    region_strategy: str = "dfs"
    text_base: int = TEXT_BASE
    #: Codec variant name from :data:`repro.compress.codec.
    #: CODEC_VARIANTS` ("" keeps the explicit :attr:`codec` object).
    #: Resolution order at encode time: this field, then the
    #: ``REPRO_CODEC_VARIANT`` setting, then :attr:`codec`; unknown
    #: names warn once and fall back to ``baseline``.
    codec_variant: str = ""

    def with_theta(self, theta: float) -> "SquashConfig":
        return replace(self, theta=theta)

    def with_buffer_bound(self, nbytes: int) -> "SquashConfig":
        return replace(self, cost=self.cost.with_buffer_bound(nbytes))

    def variant_keyed(self) -> "SquashConfig":
        """This configuration as a memo or cache key: with the
        ``REPRO_CODEC_VARIANT`` setting in :attr:`codec_variant` when
        its own is empty and the setting is not, so squashes under
        different variants never share a key.  It squashes exactly like
        this configuration, and without the setting it is this one."""
        if self.codec_variant:
            return self
        variant = _settings.current_value("codec_variant")
        return replace(self, codec_variant=variant) if variant else self

    def effective_codec(self) -> CodecConfig:
        """The :class:`CodecConfig` the encoder actually uses:
        :attr:`codec_variant` when set, else the ``REPRO_CODEC_VARIANT``
        setting, else the explicit :attr:`codec` object."""
        from repro.compress.codec import resolve_codec_variant

        variant = self.codec_variant or _settings.current_value(
            "codec_variant"
        )
        if variant:
            return resolve_codec_variant(variant)
        return self.codec

