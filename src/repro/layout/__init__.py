"""Layout substrate: window grids, layouts, synthetic designs, fill regions."""

from .assembly import (
    assemble_layout,
    generate_training_layouts,
    random_legal_fill,
    tile_to_size,
    window_pool,
)
from .designs import (
    DESIGN_BUILDERS,
    make_design,
    make_design_a,
    make_design_b,
    make_design_c,
    make_two_fillable_window_layout,
)
from .diff import (LayoutDiff, connected_components, diff_layouts,
                   dilate_mask, edit_layout)
from .fill_regions import SlackRegions, allocate_fill_by_priority, compute_slack_regions
from .geometry import Rect, union_area
from .grid import WindowGrid
from .io import layout_from_dict, layout_to_dict, load_layout, save_layout
from .layout import (
    DUMMY_SIDE_UM,
    MAX_FILL_DENSITY,
    FeatureStack,
    FillContractError,
    LayerWindows,
    Layout,
    apply_fill,
    dummy_count,
    stack_features,
)

__all__ = [
    "DESIGN_BUILDERS",
    "DUMMY_SIDE_UM",
    "MAX_FILL_DENSITY",
    "FeatureStack",
    "FillContractError",
    "LayerWindows",
    "Layout",
    "LayoutDiff",
    "Rect",
    "SlackRegions",
    "WindowGrid",
    "allocate_fill_by_priority",
    "apply_fill",
    "assemble_layout",
    "compute_slack_regions",
    "connected_components",
    "diff_layouts",
    "dilate_mask",
    "dummy_count",
    "edit_layout",
    "generate_training_layouts",
    "layout_from_dict",
    "layout_to_dict",
    "load_layout",
    "make_design",
    "make_design_a",
    "make_design_b",
    "make_design_c",
    "make_two_fillable_window_layout",
    "random_legal_fill",
    "save_layout",
    "stack_features",
    "tile_to_size",
    "union_area",
    "window_pool",
]
