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
    random_point,
    random_tangent,
    transport,
)

__all__ = [
    "BASE_MATCH_TOL", "REPROJECT_TOL", "STRICT_TOL",
    "Manifold", "Point", "Tangent",
    "Euclidean", "Sphere", "Hyperboloid", "SPD", "Product", "minkowski",
    "GeodesicAverage", "geodesic_average_update",
    "exp_map", "log_map", "transport", "distance", "inner",
    "random_point", "random_tangent", "ball_point",
]
