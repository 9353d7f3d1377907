"""Geodesics of Fuchsian meromorphic connections on the Riemann sphere."""

from .connection import (FuchsianConnection, LoopPath, PoleSpec, SpherePoint,
                         build_connection, connection_from_dict,
                         connection_to_dict, from_k_differential, local_rep,
                         monodromy_of_loop, winding_number)
from .engine import (GeodesicState, IntegratorOptions, Trajectory,
                     TrajectorySample, continue_K, delta_zeta, first_integral,
                     metric_density, self_intersections, trace,
                     trajectory_to_csv)
from .localchart import (AdaptedChart, DirectionInterval, LocalGeodesicParams,
                         adapted_chart, chi, closed_form_path, critical_length,
                         diameter_bound, entry_direction, is_critical,
                         local_params, must_cross, self_intersection_radius)
from .omega import (ClassifyBudget, OmegaVerdict, RingDomainReport,
                    SaddleConnection, TransversalSection, box_dimension,
                    classify, crossing_statistics, detect_period,
                    exclusion_audit, ring_domain_probe,
                    saddle_connection_search, transversal_analysis)
from .polygons import (GeodesicPolygon, PartTopology, PolygonVertex, Side,
                       chart_polygon, check_chart_polygon,
                       check_general_formula, check_p1_formula, connect_unique,
                       measure_internal_angle, side_from_points,
                       side_from_trajectory)
from .svg import RenderWindow, render_scene

__version__ = "0.1.0"
