"""berkline: exact computations on the Berkovich affine and projective line.

Seminorms of (Laurent) polynomials at type I-III points, diameter functions,
the non-Archimedean Fubini-Study derivative with its chain rule and unit
Moebius invariance, tropical (Newton polygon) analysis on annuli, skeleton
and genus calculus for combinatorial curve models, the two Kobayashi-type
chain semi-distances, and an executable selection/rescaling construction.
Every quantity is an exact rational or an exact power of the backend base;
no floating point anywhere.
"""

from .curves import (
    Classification,
    CurveModel,
    Decomposition,
    StarShapedData,
    TreeOfDisks,
    UltraScalar,
    chained_disk_family,
    classify,
    curve_model,
    d_tree,
    dck_curve,
    dck_tree,
    decompose,
    euler_characteristic,
    nodes,
    retract,
    total_genus,
    tree_of_disks,
    ultra,
    ultra_distance,
)
from .errors import BerklineError
from .field import (
    ABS_ONE,
    ABS_ZERO,
    AbsValue,
    FieldSpec,
    PADIC,
    PUISEUX,
    Scalar,
    as_fraction,
    rational_pair,
)
from .fsderiv import (
    Domain,
    SeriesMap,
    UNIT_DISK,
    compose,
    fs_derivative,
    fs_derivative_proj,
    identity_map,
    image_disk_radius,
    apply_map,
    pgl_apply,
    pgl_point,
    rescale_map,
    series_map,
)
from .metrics import d_proj, d_proj_line, d_usual, fs_ratio, tate_lipschitz_check
from .points import (
    DiskPoint,
    Poly,
    ProjPoint,
    diam_affine,
    diam_proj,
    diam_proj_point,
    eval_seminorm,
    gauss_point,
    join,
    rigid,
    taylor_shift,
)
from .tropic import (
    Interval,
    MonomialPiece,
    Segment,
    TropicalPolygon,
    count_zeros_annulus,
    from_series,
    monomial_pieces,
    slope_bound_check,
)
from .zalcman import (
    RescaleStep,
    SampledFunction,
    gromov_conditions,
    gromov_select,
    rescaled_bound_holds,
    sampled_function,
    zalcman_rescale,
)

__version__ = "0.1.0"
