"""The paper's contribution: geometric redundancy elimination for license
validation (overlap graph, grouping, tree division, grouped validation)."""

from repro.core.division import divide_tree, verify_partition
from repro.core.dynamic import DynamicGrouper
from repro.core.incremental import IncrementalValidator
from repro.core.gain import (
    equations_with_grouping,
    equations_without_grouping,
    gain_bounds,
    gain_for_structure,
    theoretical_gain,
)
from repro.core.grouped_tree import GroupedValidationTree
from repro.core.kernel import (
    KERNEL_DENSE,
    KERNEL_TREE,
    DenseHeadroomKernel,
)
from repro.core.grouped_zeta import GroupedZetaValidator
from repro.core.grouping import (
    GroupStructure,
    form_groups,
    form_groups_networkx,
    form_groups_paper_literal,
)
from repro.core.overlap import OverlapGraph, overlap_adjacency
from repro.core.unionfind import UnionFind
from repro.core.remap import (
    globalize_mask,
    local_to_global,
    position_array,
    remap_tree_inplace,
    remapped_aggregates,
)
from repro.core.validator import GroupedValidator

__all__ = [
    "DenseHeadroomKernel",
    "DynamicGrouper",
    "GroupStructure",
    "GroupedValidationTree",
    "GroupedValidator",
    "GroupedZetaValidator",
    "IncrementalValidator",
    "KERNEL_DENSE",
    "KERNEL_TREE",
    "OverlapGraph",
    "UnionFind",
    "divide_tree",
    "equations_with_grouping",
    "equations_without_grouping",
    "form_groups",
    "form_groups_networkx",
    "form_groups_paper_literal",
    "gain_bounds",
    "gain_for_structure",
    "globalize_mask",
    "local_to_global",
    "overlap_adjacency",
    "position_array",
    "remap_tree_inplace",
    "remapped_aggregates",
    "theoretical_gain",
    "verify_partition",
]
