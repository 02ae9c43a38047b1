"""Exact enumeration and identity verification for lozenge tilings of
hexagons with symmetrically placed triangular holes."""

from .regions import (
    CapExceeded,
    Region,
    RegionSpec,
    build_hexagon,
    build_region,
    left_half_free,
    lower_half_weighted,
    punch_holes,
    upper_half,
)
from .tiler import (
    count_free,
    count_hsym,
    count_plain,
    count_via_enumeration,
    count_vsym,
    count_weighted2,
    enumerate_tilings,
    split_by_axis,
)
from .paths import (
    count_free_via_pfaffian,
    count_weighted2_via_det,
    diagonal_lgv_matrix,
    endline_skew_matrix,
    free_path_count,
    reflectable_gf,
)
from .closedforms import (
    box_tilings,
    symmetric_box_tilings,
    transpose_complement_box_tilings,
)
from .intlinalg import (
    LabeledMatrix,
    binomial,
    determinant,
    pfaffian_by_matchings,
    pfaffian_elimination,
    signed_range_sum,
)
from .reduction import (
    StructuredSkew,
    check_hypotheses,
    difference_transform,
    extract_reduced,
    fold_transform,
    random_structured,
    verify_pfaffian_reduction,
)

__version__ = "0.1.0"
