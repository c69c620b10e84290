"""Differential tests: the vectorized kernels against scalar oracles on
hypothesis-drawn tables.

Tables are drawn over lex classes at n <= 4 and m <= 3, and over
strict_monotone_all at n <= 2: random tables (any allocation, partition or
not, at each profile) and serial-quota tables with one to three cells
overwritten.
n = 4 is the first size whose middle agents have digit weights (c^2 and c)
other than their mirror images', so a kernel that confuses an agent's
weight with another's is caught there even where n <= 3 cannot show it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from serialquota import apply, class_from_tag, permute_preference
from serialquota import engine
from serialquota.mechanisms import SerialQuota, TableMechanism, index_to_profile
from serialquota.search import _choice_masks, enumerate_q
from test_properties import scalar_deviation_witnesses, scalar_push_up_witness

SIZES = [("lex", n, m) for n in range(1, 5) for m in range(1, 4)] + [
    ("strict_monotone_all", n, m) for n in (1, 2) for m in range(1, 4)
]


@st.composite
def mutants(draw, cells=1):
    """(cls, n, table, at): a serial-quota table with the allocations at
    one to `cells` profiles overwritten by any assignments of the goods,
    `at` being the last profile overwritten."""
    tag, n, m = draw(st.sampled_from(SIZES))
    cls = class_from_tag(tag, m)
    choices = _choice_masks(n, m, partition_only=False)
    table = engine.allocation_table(SerialQuota(n, m, cls, draw(st.sampled_from(enumerate_q(n, m)))))
    for _ in range(draw(st.integers(1, cells))):
        at = draw(st.integers(0, table.shape[0] - 1))
        table[at] = choices[draw(st.integers(0, choices.shape[0] - 1))]
    return cls, n, table, at


@st.composite
def random_tables(draw):
    """(cls, n, table, None): any assignment of the goods at each profile."""
    tag, n, m = draw(st.sampled_from(SIZES))
    cls = class_from_tag(tag, m)
    choices = _choice_masks(n, m, partition_only=False)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return cls, n, choices[rng.integers(choices.shape[0], size=len(cls) ** n)], None


# Up to three overwritten cells, so that the witness stage of a full scan
# meets several violating rows; the scans at `at` need exactly one.
tables = st.one_of(mutants(cells=3), random_tables())


def scalar_neutrality_witness(table, cls, n):
    """Lowest (profile, generator position) where renaming the goods by the
    generator, through permute_preference and apply, breaks covariance."""
    mech = TableMechanism(n, cls.m, cls, tuple(map(tuple, table.tolist())))
    gens = engine.neutrality_perms(cls.m)
    for idx in range(table.shape[0]):
        profile = index_to_profile(idx, cls, n)
        base = apply(mech, profile)
        for pos, pi in enumerate(gens):
            renamed = tuple(permute_preference(p, pi) for p in profile)
            if apply(mech, renamed) != base.permute(pi):
                return idx, pos
    return None


@settings(max_examples=60, deadline=None)
@given(tables)
def test_deviation_kernels_match_scalar_oracles(case):
    cls, n, table, _ = case
    truthful, bossy = scalar_deviation_witnesses(table, cls, n)
    assert engine.truthful_violation(table, cls, n) == truthful
    assert engine.nonbossy_violation(table, cls, n) == bossy
    assert engine.push_up_violation(table, cls, n) == scalar_push_up_witness(table, cls, n)


@settings(max_examples=30, deadline=None)
@given(tables)
def test_neutrality_kernel_matches_scalar_oracle(case):
    cls, n, table, _ = case
    assert engine.neutrality_violation(table, cls, n) == scalar_neutrality_witness(table, cls, n)


@settings(max_examples=60, deadline=None)
@given(mutants())
def test_scans_at_the_mutated_profile_match_full_scans(case):
    """The quota table breaks no axiom, so every violation involves `at`."""
    cls, n, table, at = case
    for kernel in (engine.truthful_violation, engine.nonbossy_violation,
                   engine.neutrality_violation):
        assert kernel(table, cls, n, at=at) == kernel(table, cls, n), kernel.__name__
