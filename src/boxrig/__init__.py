"""Empty-rectangle influence graphs: near-linear biclique covers, box
hulls, and approximate rectangle depth, with exact brute-force oracles."""

from .boxhull import (BoxHull, DisjointCover, NotInHull, build_hull,
                      disjoint_cover, witness_rect)
from .chains import MAX_ANTI, MAX_DOM, MIN_ANTI, MIN_DOM, Chain, maxima
from .cover import (Biclique, BicliqueCover, build_cover, build_cover_basic,
                    build_k_cover, expand_edges, rect_families, verify_cover)
from .depth import (DepthIndex, EpsOutOfRange, approx_max_depth, approx_mis,
                    build_depth_index, exact_depth_at, log_approx_max_depth,
                    query_depth)
from .geom import (DuplicateX, DuplicateY, GeomError, Point, PointSet, Rect,
                   anti_dominates, dominates, rect_of, validate)
from .lab import (center_point, edge_count_experiment, gen_lower_bound,
                  gen_two_diagonals, gen_uniform, structural_fuzz)
from .oracle import (EdgeSet, InstanceTooLarge, brute_depth, brute_hull_member,
                     brute_k_rig, brute_max_depth, brute_mis, brute_rig,
                     hull_union_area, union_area)
from .rangestack import NonMonotoneKey, RangeStack, StackUnderflow

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
