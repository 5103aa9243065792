"""Cascade speculative drafting over a pluggable language-model interface,
with the matching expected-walltime analysis toolkit."""

from .core import (
    ConfigError,
    ConstructionError,
    ContractViolation,
    DegenerateDistribution,
    LanguageModel,
    RandomSource,
    TrainingError,
    Vocab,
    greedy_token,
    normalize,
    residual,
    sample,
)
from .kernel import (
    DecodeMode,
    speculative_review,
)
from .cascade import (
    CascadeConfig,
    GenerationTrace,
    KMatrix,
    StageRecord,
    autoregressive_generate,
    csd_step,
    generate,
    sd_generate,
)
from .statlm import (
    BigramTable,
    MagModel,
    NGramModel,
    load_model,
    mag_propose,
    save_model,
    train_ngram,
)
from .analytics import (
    AcceptanceProfile,
    ConstantModel,
    EwifEstimate,
    gen_fn,
    gen_fn_coeffs,
    horizontal_ewif,
    horizontal_ewif_grad,
    sd_ewif,
    simulate_horizontal_ewif,
    simulate_sd_ewif,
    simulate_vertical_ewif,
    swi,
    synthetic_pair,
    t_alpha_expectation,
    vertical_ewif,
)

__version__ = "0.1.0"
