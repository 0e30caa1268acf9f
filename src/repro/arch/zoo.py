"""Architecture zoo.

Provides the exact architectures used in the paper's evaluation:

* the five VGGNet variants of Table 1 (V13, V16, V16A, V16B, V19);
* the family of up to 100 distinct V16 variants used by the large-ensemble
  experiments (each variant differs from V16 in exactly one layer: more
  filters, a larger filter size, or both — §3 "VGGNets");
* ResNet-style networks with 18/34/50/101/152 layers and the four widened
  variants of each used by the ResNet experiment (§3 "ResNets");
* fully-connected (MLP) families used by unit tests and the quickstart.

Every factory accepts a ``width_scale`` so the same structures can be built
at paper scale (for parameter-count / clustering experiments, Table 1) or
scaled down (for the training benchmarks, which must run on a CPU-only numpy
substrate).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.arch.spec import ArchitectureSpec, ConvBlockSpec, ConvLayerSpec, DenseLayerSpec
from repro.utils.rng import SeedLike, as_rng

DEFAULT_INPUT_SHAPE: Tuple[int, int, int] = (3, 32, 32)


def _scale(filters: int, width_scale: float) -> int:
    """Scale a filter count, never going below 2 channels."""
    return max(2, int(round(filters * width_scale)))


def _conv_spec(
    name: str,
    blocks: Sequence[Sequence[Tuple[int, int]]],
    num_classes: int,
    input_shape: Tuple[int, int, int],
    width_scale: float,
    residual: bool = False,
    dense_layers: Sequence[int] = (),
    use_batchnorm: bool = True,
) -> ArchitectureSpec:
    conv_blocks = tuple(
        ConvBlockSpec(
            tuple(
                ConvLayerSpec(filter_size=size, filters=_scale(filters, width_scale))
                for size, filters in block
            ),
            residual=residual,
        )
        for block in blocks
    )
    return ArchitectureSpec(
        name=name,
        input_shape=input_shape,
        num_classes=num_classes,
        conv_blocks=conv_blocks,
        dense_layers=tuple(DenseLayerSpec(_scale(u, width_scale)) for u in dense_layers),
        use_batchnorm=use_batchnorm,
    )


# --------------------------------------------------------------------------
# VGGNet variants (Table 1)
# --------------------------------------------------------------------------

_VGG_TABLE1: dict = {
    # name -> list of blocks, each a list of (filter_size, filters)
    "V13": [
        [(3, 64)] * 2,
        [(3, 128)] * 2,
        [(3, 256)] * 2,
        [(3, 512)] * 2,
        [(3, 512)] * 2,
    ],
    "V16": [
        [(3, 64)] * 2,
        [(3, 128)] * 2,
        [(3, 256)] * 2 + [(1, 256)],
        [(3, 512)] * 2 + [(1, 512)],
        [(3, 512)] * 2 + [(1, 512)],
    ],
    "V16A": [
        [(3, 128)] * 2,
        [(3, 128)] * 2,
        [(3, 128)] * 2 + [(1, 256)],
        [(3, 512)] * 2 + [(1, 512)],
        [(3, 256)] * 2 + [(1, 512)],
    ],
    "V16B": [
        [(3, 64)] * 2,
        [(3, 128)] * 2,
        [(3, 256)] * 2 + [(3, 256)],
        [(3, 512)] * 2 + [(3, 512)],
        [(3, 512)] * 2 + [(3, 512)],
    ],
    "V19": [
        [(3, 64)] * 2,
        [(3, 128)] * 2,
        [(3, 256)] * 4,
        [(3, 512)] * 4,
        [(3, 512)] * 4,
    ],
}

VGG_VARIANT_NAMES: Tuple[str, ...] = tuple(_VGG_TABLE1)


def vgg(
    variant: str,
    num_classes: int = 10,
    input_shape: Tuple[int, int, int] = DEFAULT_INPUT_SHAPE,
    width_scale: float = 1.0,
) -> ArchitectureSpec:
    """Build one of the Table-1 VGGNet variants (V13, V16, V16A, V16B, V19)."""
    key = variant.upper()
    if key not in _VGG_TABLE1:
        raise ValueError(f"unknown VGG variant {variant!r}; known: {sorted(_VGG_TABLE1)}")
    name = key if width_scale == 1.0 else f"{key}@{width_scale:g}"
    return _conv_spec(name, _VGG_TABLE1[key], num_classes, input_shape, width_scale)


def small_vgg_ensemble(
    num_classes: int = 10,
    input_shape: Tuple[int, int, int] = DEFAULT_INPUT_SHAPE,
    width_scale: float = 1.0,
) -> List[ArchitectureSpec]:
    """The small ensemble of §3: the five VGGNet variants of Table 1."""
    return [vgg(name, num_classes, input_shape, width_scale) for name in VGG_VARIANT_NAMES]


def v16_variant_family(
    count: int,
    num_classes: int = 10,
    input_shape: Tuple[int, int, int] = DEFAULT_INPUT_SHAPE,
    width_scale: float = 1.0,
    seed: SeedLike = 0,
) -> List[ArchitectureSpec]:
    """The large-ensemble family: up to ``count`` distinct variants of V16.

    As in the paper, every member has a distinct architecture obtained from
    V16 by modifying exactly one convolutional layer in one of three ways:
    (i) increasing its number of filters, (ii) increasing its filter size, or
    (iii) both.  The base V16 is always the first member so that the
    constructed MotherNet coincides with V16 itself.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = as_rng(seed)
    base_blocks = _VGG_TABLE1["V16"]
    positions = [
        (b, i) for b, block in enumerate(base_blocks) for i in range(len(block))
    ]
    members: List[ArchitectureSpec] = [
        vgg("V16", num_classes, input_shape, width_scale).with_name("V16-base")
    ]
    seen = {tuple(tuple(block) for block in base_blocks)}
    attempts = 0
    while len(members) < count:
        attempts += 1
        if attempts > 100 * count:
            raise RuntimeError("unable to generate enough distinct V16 variants")
        block_idx, layer_idx = positions[int(rng.integers(len(positions)))]
        mode = int(rng.integers(3))
        blocks = [list(block) for block in base_blocks]
        size, filters = blocks[block_idx][layer_idx]
        if mode in (0, 2):  # more filters
            filters = int(filters * float(rng.choice([1.125, 1.25, 1.375, 1.5, 1.75, 2.0])))
        if mode in (1, 2):  # larger filter size
            size = size + 2
        blocks[block_idx][layer_idx] = (size, filters)
        key = tuple(tuple(block) for block in blocks)
        if key in seen:
            continue
        seen.add(key)
        name = f"V16-var-{len(members):03d}"
        members.append(_conv_spec(name, blocks, num_classes, input_shape, width_scale))
    return members[:count]


# --------------------------------------------------------------------------
# ResNet variants
# --------------------------------------------------------------------------

# Units per block for the standard ResNet depths.  The paper uses the
# bottleneck design for ResNet-50/101/152; this CPU-only numpy substrate uses
# two-convolution basic units throughout while keeping the published unit
# counts, so relative sizes and the clustering structure are preserved.
_RESNET_UNITS: dict = {
    18: [2, 2, 2, 2],
    34: [3, 4, 6, 3],
    50: [3, 4, 6, 3],
    101: [3, 4, 23, 3],
    152: [3, 8, 36, 3],
}
_RESNET_WIDTHS: Tuple[int, ...] = (64, 128, 256, 512)
# ResNet-50/101/152 use 4x wider block outputs (bottleneck expansion); widening
# the basic units for those depths keeps their parameter counts well separated
# from ResNet-18/34, which is what drives the clustering result of §3.
_RESNET_EXPANSION: dict = {18: 1, 34: 1, 50: 2, 101: 2, 152: 2}

RESNET_DEPTHS: Tuple[int, ...] = tuple(sorted(_RESNET_UNITS))


def resnet(
    depth: int,
    num_classes: int = 10,
    input_shape: Tuple[int, int, int] = DEFAULT_INPUT_SHAPE,
    width_scale: float = 1.0,
    block_width_multipliers: Sequence[float] = (1.0, 1.0, 1.0, 1.0),
    block_width_offsets: Sequence[int] = (0, 0, 0, 0),
    name: str | None = None,
) -> ArchitectureSpec:
    """Build a ResNet-style architecture of the given ``depth``.

    ``block_width_multipliers`` / ``block_width_offsets`` implement the four
    widened variants used by the paper's ResNet experiment (double or +2 the
    filter count of every even / odd block).
    """
    if depth not in _RESNET_UNITS:
        raise ValueError(f"unsupported ResNet depth {depth}; known: {RESNET_DEPTHS}")
    if len(block_width_multipliers) != 4 or len(block_width_offsets) != 4:
        raise ValueError("ResNets have four blocks; provide four multipliers/offsets")
    expansion = _RESNET_EXPANSION[depth]
    blocks = []
    for b, units in enumerate(_RESNET_UNITS[depth]):
        width = _RESNET_WIDTHS[b] * expansion * block_width_multipliers[b]
        filters = _scale(width, width_scale) + int(block_width_offsets[b])
        blocks.append([(3, filters)] * units)
    spec_name = name or (f"ResNet{depth}" if width_scale == 1.0 else f"ResNet{depth}@{width_scale:g}")
    return _conv_spec(
        spec_name, blocks, num_classes, input_shape, width_scale=1.0, residual=True
    )


def resnet_variant_family(
    num_classes: int = 10,
    input_shape: Tuple[int, int, int] = DEFAULT_INPUT_SHAPE,
    width_scale: float = 1.0,
    depths: Sequence[int] = RESNET_DEPTHS,
) -> List[ArchitectureSpec]:
    """The 25-member ResNet ensemble of §3.

    For each depth in ``depths`` the family contains the base network plus
    four variants: filter count doubled for every even block, doubled for
    every odd block, increased by two for every even block, and increased by
    two for every odd block.
    """
    even = (0, 2)
    odd = (1, 3)
    variants = [
        ("base", (1.0, 1.0, 1.0, 1.0), (0, 0, 0, 0)),
        ("x2even", tuple(2.0 if b in even else 1.0 for b in range(4)), (0, 0, 0, 0)),
        ("x2odd", tuple(2.0 if b in odd else 1.0 for b in range(4)), (0, 0, 0, 0)),
        ("p2even", (1.0, 1.0, 1.0, 1.0), tuple(2 if b in even else 0 for b in range(4))),
        ("p2odd", (1.0, 1.0, 1.0, 1.0), tuple(2 if b in odd else 0 for b in range(4))),
    ]
    members: List[ArchitectureSpec] = []
    for depth in depths:
        for suffix, multipliers, offsets in variants:
            members.append(
                resnet(
                    depth,
                    num_classes=num_classes,
                    input_shape=input_shape,
                    width_scale=width_scale,
                    block_width_multipliers=multipliers,
                    block_width_offsets=offsets,
                    name=f"ResNet{depth}-{suffix}",
                )
            )
    return members


# --------------------------------------------------------------------------
# Fully-connected families
# --------------------------------------------------------------------------


def mlp(
    name: str,
    input_features: int,
    hidden_units: Sequence[int],
    num_classes: int,
    use_batchnorm: bool = False,
) -> ArchitectureSpec:
    """A plain multi-layer perceptron."""
    return ArchitectureSpec.dense(
        name, input_features, hidden_units, num_classes, use_batchnorm=use_batchnorm
    )


def mlp_family(
    count: int,
    input_features: int = 64,
    num_classes: int = 10,
    base_width: int = 32,
    base_depth: int = 2,
    seed: SeedLike = 0,
    use_batchnorm: bool = False,
) -> List[ArchitectureSpec]:
    """A family of MLPs with diverse depths and widths.

    Member 0 is the base network; further members add layers and/or widen
    existing layers, giving a family from which a non-trivial MotherNet can be
    constructed.  Used by the quickstart example and by unit/property tests.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = as_rng(seed)
    members: List[ArchitectureSpec] = []
    seen = set()
    widths = [base_width] * base_depth
    members.append(mlp("mlp-base", input_features, widths, num_classes, use_batchnorm))
    seen.add(tuple(widths))
    attempts = 0
    while len(members) < count:
        attempts += 1
        if attempts > 200 * count:
            raise RuntimeError("unable to generate enough distinct MLP variants")
        depth = base_depth + int(rng.integers(0, 3))
        layer_widths = []
        for i in range(depth):
            multiplier = float(rng.choice([1.0, 1.25, 1.5, 2.0]))
            layer_widths.append(max(4, int(round(base_width * multiplier))))
        key = tuple(layer_widths)
        if key in seen:
            continue
        seen.add(key)
        members.append(
            mlp(
                f"mlp-var-{len(members):03d}",
                input_features,
                layer_widths,
                num_classes,
                use_batchnorm,
            )
        )
    return members[:count]
