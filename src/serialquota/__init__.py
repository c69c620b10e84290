"""Verification toolkit for serial-quota allocation mechanisms.

Preferences are strict weakly-monotone orders over subsets of up to 16
goods, encoded as bitmasks.  The package checks the axioms characterizing
serial-quota mechanisms (truthfulness, non-bossiness, neutrality), audits
fairness guarantees (EF1, maximin-share ratios), and verifies the
characterization computationally by exhaustive enumeration at tiny sizes and
mutation falsification above them.
"""

from .errors import (
    DomainError,
    EnumerationTooLarge,
    IdenticalSets,
    InvalidDomain,
    InvalidOrdering,
    InvalidPartition,
    NotEnumerable,
    NotInClass,
    QuotaExceedsPool,
    QuotaOverflow,
    SerialQuotaError,
    TieDetected,
    TooLarge,
    TooSmall,
)
from .fairness import (
    FairnessAudit,
    GeneratorSpec,
    ef1_audit,
    ef1_quota_feasibility,
    ef1_random_sweep,
    mms,
    rho_bound,
    rho_floor_sweep,
    rho_mms_audit,
)
from .mechanisms import (
    Allocation,
    CardinalInstance,
    CounterBossy,
    CounterNonNeutral,
    CounterNonTruthful,
    Mechanism,
    QuotaOrdering,
    RoundRobin,
    SerialQuota,
    TableMechanism,
    apply,
    apply_serial_quota,
    canonicalize,
    cardinal_apply,
    index_to_profile,
    profile_index,
    serial_quota,
)
from .prefs import (
    AdditiveStrict,
    Lexicographic,
    Ordering,
    Permutation,
    Preference,
    PreferenceClass,
    RankTable,
    additive_class,
    class_from_tag,
    compare,
    demand,
    enumerate_class,
    explicit_class,
    full_mask,
    goods_of,
    is_push_up,
    lex_class,
    mask_of,
    permute_preference,
    strict_monotone_class,
    strongly_desires,
    submasks,
)
from .properties import (
    PropertyReport,
    check,
    pareto_blocking,
    replay_witness,
    verify_blocking,
)
from .search import (
    CharacterizationReport,
    enumerate_q,
    verify_characterization,
)

__version__ = "0.1.0"
