"""Verification and enumeration toolkit for finite proximity spaces,
descriptive proximity spaces, and proximal groups."""

from .spaces import (
    FiniteSpace,
    bits,
    default_space,
    product_space,
)
from .relations import (
    ProximityRelation,
    make_coarse_proximity,
    make_discrete_proximity,
    make_metric_proximity,
    quotient_proximity,
    relation_from_near_pairs,
    relation_from_point_pairs,
    subspace_proximity,
)
from .axioms import (
    AxiomReport,
    TopologySnapshot,
    check_cech,
    check_efremovic,
    check_kuratowski,
    check_lodato,
    closure,
    closure_table,
    ef_separators,
    induced_topology,
)
from .maps import (
    SpaceMap,
    check_pcont,
    check_proximal_isomorphism,
    compose,
    identity_map,
)
from .descriptive import (
    MappingSpaceVerdict,
    ProbeTable,
    check_descriptive_ef,
    check_descriptive_lodato,
    check_dpcont,
    describe,
    descriptive_intersection,
    descriptive_proximity,
    mapping_space_relation,
    probe_table,
    product_probe_table,
)
from .groups import (
    Check,
    FiniteGroup,
    ProximalGroupReport,
    TranslationReport,
    all_groups_up_to,
    all_subgroups,
    check_proximal_group,
    check_proximal_homomorphism,
    check_translations,
    check_transitivity_property,
    cyclic_group,
    dihedral_group,
    direct_product_group,
    hom_criterion_check,
    invertible_subsets,
    is_proximal_group,
    normal_subgroups,
    product_proximal_group,
    quaternion_group,
    quotient_proximal_group,
    subgroup_proximal_group,
    subset_inverse,
    subset_product,
)
from .harnesses import (
    HausdorffReport,
    ImplicationReport,
    IsoTheoremReport,
    ProjectionDemoReport,
    check_descriptive_proximal_group,
    first_iso_harness,
    hausdorff_check,
    inversion_continuity_harness,
    multiplication_continuity_harness,
    projection_hom_demo,
    second_iso_harness,
    third_iso_harness,
)
from .enumeration import (
    FuzzOutcome,
    FuzzScope,
    RelationCensus,
    enumerate_relations,
    fuzz_theorem,
    mine_separating_examples,
    naive_oracle,
    replay_counterexample,
    witness_violates,
)
from .workspace import (
    WorkspaceDocument,
    WorkspaceError,
    parse_workspace,
)
from .cli import CommandResult, run_command

__version__ = "0.1.0"
