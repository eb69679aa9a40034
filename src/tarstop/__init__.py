"""Stopping rules for ranked document review.

Train a stopping policy on batched rankings, run collection-wide oracle/knee/budget
baselines, and score everything with recall/cost/excess reports.
"""

from .baselines import budget_stop, knee_stop, oracle_stop
from .corpus import (
    Batches,
    Collection,
    assemble_topics,
    first_reaching,
    load_qrels,
    load_run,
    parse_qrels,
    parse_run,
    rank_relevance_probs,
    synth_topics,
    write_qrels_file,
    write_run_file,
)
from .env import CONTINUE, STOP, VecStoppingEnv, reward
from .errors import ConfigError, ParseError
from .metrics import (
    MethodSummary,
    MetricsReport,
    StopResult,
    TopicMetrics,
    aggregate,
    read_results_csv,
    write_aggregate_csv,
    write_per_topic_csv,
    write_results_csv,
)
from .nets import (
    AdamState,
    MlpParams,
    adam_init,
    adam_step,
    backward,
    forward,
    init_params,
    joint_params,
)
from .ppo import (
    Checkpoint,
    Hyperparams,
    RolloutBuffer,
    collect_rollout,
    compute_gae,
    infer_stop,
    load_checkpoint,
    ppo_loss,
    ppo_update,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"
