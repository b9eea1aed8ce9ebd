"""Exact combinatorics of extended multi-segments."""

from .core import (
    MultiSegment, Row, SegmentError, ParseError, OrderError, ScopeError,
    arthur_parameter, check_star, from_json, group_sign, make_row,
    multi_segment, parse, render, render_grid, to_json, validate,
)
from .ops import (
    OpResult, dual, merge_hats, row_exchange, split_circles, to_sorted, ui,
)
from .blocks import (
    BlockTuple, Boundary, block_decompose, block_tuple, classify_boundary,
    is_tempered, remove_column, tempered_block,
)
from .sdata import (
    build, enumerate_S, enumerate_ST, theta1, theta_family,
    theta2_matches_theta4, validate_S, validate_T,
)
from .count import (
    PacketCount, count_block_closure, count_block_enumerative,
    count_block_recursive, count_multi, count_tempered,
)
from .closure import (
    ClosureReport, LimitError, are_equivalent, canonical, closure,
)
