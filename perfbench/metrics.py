"""Names and units of the per-layer metrics a traced run reports.

``BENCHMARK.json`` lists ``PER_LAYER`` in the same order.
"""

# lru_cache'd functions whose hits and misses are read after each operation.
CACHED_FUNCTIONS = (
    "hecke.kl_basis", "hecke.cells", "hecke.cell_datum",
    "domino.group_elements", "specht.decomposition_numbers",
    "canonical.canonical_basis", "crystal.crystal_graph",
    "combinat.partitions", "combinat.enumerate_bipartitions",
    "cyclo.cyclotomic_polynomial",
)

# Per-layer metrics of a traced run: (name, unit).  ``<fn>.calls`` counts
# calls; for an lru_cache'd function it counts the calls that ran its body.
# ``<fn>.self_s`` is time in the function's spans not covered by child spans.
PER_LAYER = [
    ("domino.SignedPermutation.mul.calls", "count"),
    ("domino.length.calls", "count"),
    ("domino.reduced_word.calls", "count"),
    ("domino.s_t_lambda.calls", "count"),
    ("domino.s_t_lambda.self_s", "s"),
    ("domino.group_elements.self_s", "s"),
    ("laurent.ACoeff.mul.calls", "count"),
    ("laurent.ACoeff.add.calls", "count"),
    ("laurent.VPoly.mul.calls", "count"),
    ("laurent.VPoly.add.calls", "count"),
    ("cyclo.CycloNumber.mul.calls", "count"),
    ("cyclo.CycloNumber.inverse.calls", "count"),
    ("hecke.kl_basis.self_s", "s"),
    ("hecke.kl_basis.terms", "count"),
    ("hecke.bar.self_s", "s"),
    ("hecke.cells.self_s", "s"),
    ("hecke.HeckeElement.mul_gen.calls", "count"),
    ("hecke.conjecture_a_report.self_s", "s"),
    ("hecke.HeckeElement.mul.calls", "count"),
    ("hecke.cell_datum.self_s", "s"),
    ("hecke.structure_coefficients.self_s", "s"),
    ("orders.dominance_r.calls", "count"),
    ("orders.dominance_r.self_s", "s"),
    ("combinat.q_r_inverse.calls", "count"),
    ("combinat.Partition.part.calls", "count"),
    ("specht.decomposition_numbers.self_s", "s"),
    ("specht.nonzero_simples.self_s", "s"),
    ("specht.theorem41_check.self_s", "s"),
    ("canonical.canonical_basis.self_s", "s"),
    ("canonical.decomposition_matrix.self_s", "s"),
    ("fock.f_action.calls", "count"),
    ("fock.divided_power_f.calls", "count"),
    ("fock.divided_power_f.self_s", "s"),
    ("crystal.uglov_bipartitions.self_s", "s"),
    ("cli.run.self_s", "s"),
]
PER_LAYER += [(f"{fn}.{what}", unit) for fn in CACHED_FUNCTIONS
              for what, unit in (("hits", "count"), ("misses", "count"),
                                 ("hit_ratio", "ratio"))]
# Reported by the traced run but not listed in BENCHMARK.json: private
# stages that exist only until a refactor removes them.
STAGES = [
    ("hecke.expand_in_kl.calls", "count"),
    ("hecke._bar_t.self_s", "s"),
    ("specht._generic_data.self_s", "s"),
    ("specht._specialized_data.self_s", "s"),
    ("specht._action_matrices.self_s", "s"),
]
