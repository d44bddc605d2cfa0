"""Spatial-temporal graph generation (paper Sec. IV).

``FlowConvolution`` learns dynamic node features from flow windows;
``build_fcg`` and ``build_pcg`` turn those features into the two dense
``(n, n)`` spatial-temporal graphs STGNN-DJD's GNN consumes, at every
city size.
"""

from repro.graphs.flow_convolution import FlowConvolution, FlowConvolutionOutput
from repro.graphs.fcg import FlowConvolutedGraph, build_fcg
from repro.graphs.pcg import PatternCorrelationGraph, build_pcg

__all__ = [
    "FlowConvolution",
    "FlowConvolutionOutput",
    "FlowConvolutedGraph",
    "build_fcg",
    "PatternCorrelationGraph",
    "build_pcg",
]
