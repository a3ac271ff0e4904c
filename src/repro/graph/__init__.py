"""Road-network substrate: graph, Dijkstra variants, PoI index, spatial."""

from repro.graph.csr import CSRGraph, csr_graph
from repro.graph.dijkstra import (
    ExpansionCounters,
    ResumableDijkstra,
    bounded_dijkstra,
    dijkstra,
    eccentricity,
    multi_source_min_distance,
    shortest_path,
)
from repro.graph.landmarks import LandmarkIndex, landmarks_for
from repro.graph.poi import PoIIndex
from repro.graph.road_network import RoadNetwork
from repro.graph.spatial import (
    bounding_box,
    embed_poi_on_edge,
    equirectangular,
    euclidean,
    nearest_edge,
    nearest_vertex,
)

__all__ = [
    "RoadNetwork",
    "PoIIndex",
    "CSRGraph",
    "csr_graph",
    "LandmarkIndex",
    "landmarks_for",
    "ExpansionCounters",
    "dijkstra",
    "bounded_dijkstra",
    "shortest_path",
    "multi_source_min_distance",
    "eccentricity",
    "ResumableDijkstra",
    "euclidean",
    "equirectangular",
    "nearest_vertex",
    "nearest_edge",
    "embed_poi_on_edge",
    "bounding_box",
]
