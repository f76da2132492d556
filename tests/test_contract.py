"""The public contract: the names `pentakin` exports and the CLI
subcommands.  A change to either list is a change of the contract and has
to be made here on purpose."""

import types

import pentakin
from pentakin.cli import build_parser

PUBLIC_NAMES = [
    "ArchVerdict", "AssumptionViolationError", "Bond", "ConcyclicResult",
    "ConstraintHyperplane", "CubicCorrespondence", "DKResult", "DKSolution",
    "Duporcq", "GaussRat", "INF", "Leg", "MobiusTransform", "MotionParams",
    "NecessityVerdict", "Pentapod", "PentapodClass", "PlanarD", "ProjPoint",
    "Reality", "SelfMotionDesign", "StudyParams", "TraceResult",
    "angle_condition", "canonical_pentapod", "circular_translation_check",
    "classify_arch", "classify_type", "concyclic", "constraint_hyperplane",
    "cross_ratio", "darboux_condition", "displacement", "duporcq_check",
    "exactify", "find_bonds", "gamma_residuals", "lift_study",
    "mannheim_condition", "max_real_solutions", "mobius_equivalent",
    "mobius_from_pairs", "necessity_verdict", "nonplanar_D", "numeric_rank",
    "phi_residuals", "planar_D", "planar_vertex", "real_legs_from_design",
    "real_roots", "reality", "replacement_cubic", "resultant", "sigma",
    "solve_dk", "sphere_condition", "synth_leg_params", "tangency_rank",
    "trace", "validate_assumptions",
]

SUBCOMMANDS = ["bonds", "classify", "dk", "maxreal", "synth", "trace",
               "validate"]


def test_public_names():
    # submodules are left out: which of them `dir(pentakin)` lists
    # depends on what the test session imported before
    names = sorted(n for n in dir(pentakin) if not n.startswith("_")
                   and not isinstance(getattr(pentakin, n), types.ModuleType))
    assert names == PUBLIC_NAMES


def test_cli_subcommands():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert sorted(sub.choices) == SUBCOMMANDS
