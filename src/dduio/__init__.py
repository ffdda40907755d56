"""Distributed unknown-input observers for continuous-time LTI systems.

Model-based and purely data-driven observer design, solvability and
detectability certification from offline data, coupled plant/observer
simulation, and a seeded benchmark comparison harness.
"""

__version__ = "0.1.0"

from .design_model import DesignSection, DuioGains, build_model_based_gains
from .design_data import build_data_driven_gains
from .datagen import DataSection, NodeDataset, collect
from .network import SensorGraph
from .observer_sim import RunResult, run
from .plant import PlantModel, simulate

__all__ = [
    "DataSection", "DesignSection", "DuioGains", "NodeDataset", "PlantModel",
    "RunResult", "SensorGraph",
    "build_data_driven_gains", "build_model_based_gains",
    "collect", "run", "simulate", "__version__",
]
