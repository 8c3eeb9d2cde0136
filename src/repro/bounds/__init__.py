"""Bound providers: the paper's schemes and the adapted baselines."""

from repro.bounds import kernels
from repro.bounds.adm import Adm, AdmIncremental
from repro.bounds.aesa import Aesa
from repro.bounds.dft import DirectFeasibilityTest
from repro.bounds.landmarks import (
    SELECTION_STRATEGIES,
    bootstrap_with_landmarks,
    default_num_landmarks,
    resolve_landmark_matrix,
    select_landmarks,
    select_landmarks_maxmin,
    select_landmarks_maxsum,
    select_landmarks_random,
)
from repro.bounds.laesa import Laesa
from repro.bounds.splub import Splub, dijkstra_distances
from repro.bounds.tlaesa import Tlaesa
from repro.bounds.tri import TriScheme

__all__ = [
    "Adm",
    "AdmIncremental",
    "Aesa",
    "DirectFeasibilityTest",
    "Laesa",
    "Splub",
    "Tlaesa",
    "TriScheme",
    "kernels",
    "bootstrap_with_landmarks",
    "default_num_landmarks",
    "dijkstra_distances",
    "resolve_landmark_matrix",
    "SELECTION_STRATEGIES",
    "select_landmarks",
    "select_landmarks_maxmin",
    "select_landmarks_maxsum",
    "select_landmarks_random",
]
