"""Federated low-rank fine-tuning simulator with QR-based aggregation.

Library layout:

* ``linalg``      dense kernels: thin and leading-block QR, norms, slices,
                  subspace residuals
* ``adapter``     low-rank adapter pairs, the frozen base weight (``BaseWeight``),
                  QR-orthonormal initialization
* ``model``       softmax-head functions on plain arrays: the factored head
                  on cached frozen-base logits, the optional frozen tanh
                  features
* ``data``        synthetic blobs and Dirichlet non-IID partitioning
* ``optim``       AdamW plus control-variate drift correction
* ``aggregation`` concatenated-QR fusion and baseline aggregators
* ``federation``  round orchestration, metrics, communication accounting
* ``config``      experiment specs, presets, metrics serialization
* ``oracle``      slow dense references the production paths are checked
                  against; not exported here
* ``verify``      named property suites behind the acceptance criteria
"""

from .adapter import (
    BaseWeight,
    LoraAdapter,
    effective_weight,
    qr_orthogonal_init,
)
from .aggregation import (
    AggregationResult,
    ClientUpdate,
    apply_global,
    baseline_factor_average,
    baseline_full_stack,
    baseline_zero_pad,
    concat_reconstruct,
    personalize,
    qr_compress,
)
from .config import (
    DataParams,
    ExperimentSpec,
    parse_config,
    preset_spec,
    serialize_spec,
)
from .data import (
    Dataset,
    PartitionPlan,
    dirichlet_partition,
    generate_blobs,
    read_dataset,
    write_dataset,
)
from .federation import (
    ClientState,
    FederationConfig,
    RoundContext,
    RoundMetrics,
    ServerState,
    account_communication,
    init_federation,
    run_federation,
    run_round,
)
from .linalg import (
    frobenius_norm,
    leading_qr,
    slice_cols,
    slice_rows,
    subspace_residual,
    thin_qr,
)
from .optim import (
    AdamWState,
    ControlVariates,
    adamw_step,
    local_control_update,
    server_control_aggregate,
    slice_controls,
)

__version__ = "0.1.0"
