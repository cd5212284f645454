"""Verification suites: axiom measurement, lemma battery, ambient constants,
distance-formula evaluation, and triangle thinness scans."""

from .axioms import ApReport, check_ap_axioms
from .battery import BatteryReport, BatteryRow, lemma_battery
from .constants import DstgConstants, estimate_dstg_constants
from .formula import FitRow, FormulaEval, distance_formula, fit_formula_constants
from .sampling import SamplePlan, random_element_by_length, seeded_pairs
from .thinness import ThinnessReport, ThinnessRow, thinness_scan, triangle_sample

__all__ = [name for name in dir() if not name.startswith("_")]
