"""Preferential-attachment hypergraphs: generation, projection, and
degree-distribution analysis."""

from .analysis import (DegreeHistogram, FitReport, ObservedGraph, analytic_beta,
                       analytic_mk, ccdf, degree_histogram, edge_size_histogram,
                       fit_power_law, project, projected_degrees, sample_power_law)
from .core import Hypergraph
from .generator import (Constant, EdgeSizeDistribution, GeneratorConfig,
                        TruncatedZipf, UniformInt, evolve, evolve_graph_baseline,
                        sum_sizes_trace)
from .io import (ingest_labeled, read_histogram_csv, read_hypergraph,
                 write_ccdf_csv, write_fit_report, write_histogram_csv,
                 write_hypergraph, write_label_map, write_observed_graph)

__version__ = "0.1.0"

__all__ = [
    "Hypergraph",
    "EdgeSizeDistribution",
    "Constant",
    "UniformInt",
    "TruncatedZipf",
    "GeneratorConfig",
    "evolve",
    "evolve_graph_baseline",
    "sum_sizes_trace",
    "DegreeHistogram",
    "FitReport",
    "ObservedGraph",
    "degree_histogram",
    "edge_size_histogram",
    "project",
    "projected_degrees",
    "ccdf",
    "fit_power_law",
    "analytic_beta",
    "analytic_mk",
    "sample_power_law",
    "read_hypergraph",
    "write_hypergraph",
    "write_observed_graph",
    "ingest_labeled",
    "read_histogram_csv",
    "write_histogram_csv",
    "write_ccdf_csv",
    "write_fit_report",
    "write_label_map",
]
