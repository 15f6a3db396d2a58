"""Multi-task learning on crowd and expert affect annotations.

The package covers the full pipeline: trace ingestion and quality control,
median fusion and concordance statistics, stacked design assembly,
proximal-gradient solvers for seven sparse multi-task formulations, and
the snippet-regression / transfer-classification experiment protocols.
"""

from .annotations import (
    AnnotationTrace,
    ConcordanceReport,
    QcPolicy,
    QcVerdict,
    TraceTable,
    concordance,
    kendalls_w,
    load_traces,
    median_fuse,
    pearson,
    qc_reasons,
    quality_filter,
    resample_trace,
    resample_windows,
    window_last,
)
from .design import (
    StackedDesign,
    TaskDataset,
    TaskGraph,
    assemble_design,
    build_reliability,
    discretize_levels,
    level_midpoints,
)
from .errors import CrowdMtlError, DataError, NumericalError, UsageError
from .experiments import (
    P1Config,
    P1Data,
    P2Config,
    P2Data,
    ResultRow,
    ResultTable,
    SynthConfig,
    accuracy,
    crossval_lambda1,
    extract_snippets,
    rmse,
    run_p1,
    run_p2,
    substream,
    synth_generate,
    synth_generate_p2,
)
from .prox import prox_l1, prox_l21_rows, prox_linf_rows
from .solvers import (
    CompositeProblem,
    FitResult,
    ModelSpec,
    SolverConfig,
    build_problem,
    fista_solve,
    fit,
    predict,
    predict_transfer,
)

__version__ = "0.1.0"
