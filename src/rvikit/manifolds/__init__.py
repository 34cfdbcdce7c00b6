from .base import BASE_MATCH_TOL, REPROJECT_TOL, STRICT_TOL, Manifold, Point, Tangent
from .euclidean import Euclidean
from .hyperboloid import Hyperboloid, minkowski
from .product import Product
from .sphere import Sphere
from .spd import SPD
from .ops import (
    GeodesicAverage,
    ball_point,
    distance,
    exp_map,
    geodesic_average_update,
    inner,
    log_map,
    point_from_list,
    point_to_list,
    random_point,
    random_tangent,
    transport,
    zero_tangent,
)

__all__ = [
    "BASE_MATCH_TOL", "REPROJECT_TOL", "STRICT_TOL",
    "Manifold", "Point", "Tangent",
    "Euclidean", "Sphere", "Hyperboloid", "SPD", "Product", "minkowski",
    "GeodesicAverage", "geodesic_average_update",
    "exp_map", "log_map", "transport", "distance", "inner",
    "zero_tangent", "random_point", "random_tangent", "ball_point",
    "point_to_list", "point_from_list",
]
