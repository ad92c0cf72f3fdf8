"""UNet (Ronneberger et al. [20]) — the paper's CMP surrogate backbone.

A down-sampling path captures multi-window context (the pad's
planarization neighbourhood), the up-sampling path restores per-window
resolution, and skip connections keep local pattern detail — the same
encoder/decoder sketch as the paper's Fig. 4.

Input sizes need not be multiples of ``2**depth``; the forward pass
zero-pads to the next multiple and crops the output back (the paper
instead fixes the input at 100x100 windows and tiles smaller layouts —
:func:`repro.layout.assembly.tile_to_size` provides that behaviour when
exact parity is wanted).
"""

from __future__ import annotations

from ..config import rng_from_seed
from . import functional as F
from .conv import max_pool2d, upsample2x
from .modules import BatchNorm2d, Conv2d, Module, ReLU, Sequential
from .tensor import Tensor


class DoubleConv(Module):
    """(conv3x3 -> BN -> ReLU) x 2, the standard UNet block."""

    def __init__(self, in_channels: int, out_channels: int, rng=None,
                 batch_norm: bool = True):
        super().__init__()
        def block(cin: int, cout: int) -> list[Module]:
            layers: list[Module] = [Conv2d(cin, cout, 3, padding=1, rng=rng)]
            if batch_norm:
                layers.append(BatchNorm2d(cout))
            layers.append(ReLU())
            return layers

        self.body = Sequential(*block(in_channels, out_channels),
                               *block(out_channels, out_channels))

    def forward(self, x: Tensor) -> Tensor:
        return self.body(x)

    def receptive_radius(self) -> int:
        """Summed one-sided reach of the block's convolutions (in cells)."""
        return sum(layer.receptive_radius for layer in self.body.layers
                   if isinstance(layer, Conv2d))


class UNet(Module):
    """Configurable-depth UNet mapping layout parameters to a height map.

    Args:
        in_channels: number of layout parameter planes (matrix **L**).
        out_channels: output planes (1: the height profile ``H_n``).
        base_channels: channels of the first encoder block; each deeper
            level doubles it.
        depth: number of down/up-sampling stages.
        rng: seed or generator for weight init (deterministic if given).
        batch_norm: include BatchNorm2d in conv blocks.
    """

    def __init__(self, in_channels: int, out_channels: int = 1,
                 base_channels: int = 8, depth: int = 2, rng=None,
                 batch_norm: bool = True):
        super().__init__()
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        rng = rng_from_seed(rng)
        self.depth = depth

        chans = [base_channels * (2**i) for i in range(depth + 1)]
        self.encoders = [
            DoubleConv(in_channels if i == 0 else chans[i - 1], chans[i],
                       rng=rng, batch_norm=batch_norm)
            for i in range(depth)
        ]
        self.bottleneck = DoubleConv(chans[depth - 1], chans[depth],
                                     rng=rng, batch_norm=batch_norm)
        # Decoder: upsample, reduce channels, concat skip, double conv.
        self.up_convs = [
            Conv2d(chans[i + 1], chans[i], 3, padding=1, rng=rng)
            for i in reversed(range(depth))
        ]
        self.decoders = [
            DoubleConv(2 * chans[i], chans[i], rng=rng, batch_norm=batch_norm)
            for i in reversed(range(depth))
        ]
        self.head = Conv2d(chans[0], out_channels, 1, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"UNet expects (B, C, H, W), got {x.shape}")
        B, C, H, W = x.shape
        multiple = 2**self.depth
        pad_h = (-H) % multiple
        pad_w = (-W) % multiple
        if pad_h or pad_w:
            x = F.pad2d(x, (0, pad_h, 0, pad_w))

        skips = []
        for encoder in self.encoders:
            x = encoder(x)
            skips.append(x)
            x = max_pool2d(x, 2)
        x = self.bottleneck(x)
        for up_conv, decoder, skip in zip(self.up_convs, self.decoders,
                                          reversed(skips)):
            x = up_conv(upsample2x(x))
            x = decoder(F.concat([skip, x], axis=1))
        x = self.head(x)

        if pad_h or pad_w:
            x = x[:, :, :H, :W]
        return x

    @property
    def alignment(self) -> int:
        """Crop origins must be multiples of this (the pooling grid pitch)."""
        return 2 ** self.depth

    def receptive_field_radius(self) -> int:
        """Exact one-sided receptive-field radius in input windows.

        Computed from the per-block kernel metadata with the standard
        span recursion ``R = 1 + sum (k_l - 1) * jump_l`` (jump = product
        of strides before layer ``l``), then halved and rounded up to
        absorb the half-cell asymmetry of the 2x pool/upsample pair.
        A cropped forward with a halo of at least this many windows
        (rounded up to :attr:`alignment`) reproduces the monolithic
        forward exactly on the crop's core — see
        :meth:`repro.surrogate.network.CmpNeuralNetwork.evaluate_region`.
        """
        span = 0  # R - 1
        jump = 1
        for encoder in self.encoders:
            span += 2 * jump * encoder.receptive_radius()
            span += jump  # max-pool, kernel 2
            jump *= 2
        span += 2 * jump * self.bottleneck.receptive_radius()
        for up_conv, decoder in zip(self.up_convs, self.decoders):
            jump //= 2
            span += 2 * jump * up_conv.receptive_radius
            span += 2 * jump * decoder.receptive_radius()
        return (span + 1) // 2
