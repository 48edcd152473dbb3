"""Link-level simulator for interference mitigation in uncoordinated
multi-carrier networks through partially overlapping tones.

The package splits into waveform-level machinery (prototype filters and
their cross-ambiguity), channel and network models, received-energy
decomposition, an offline Q-learning policy over quantized frequency
offsets, and a Monte Carlo experiment harness with a ``potsim`` CLI.
"""

from .errors import (PotsimError, ParameterError, ConfigError,
                     DegenerateFilterError, PolicyUnavailableError,
                     MissingArtifactError)
from .waveform import (GAUSSIAN, RRC, IOTA, FILTER_FAMILIES, LatticeConfig,
                       PrototypeFilter, make_gaussian, make_rrc, make_iota,
                       filter_factory, ambiguity, CrossAmbiguity)
from .channel import (ChannelModel, ChannelRealization, free_space_path_loss,
                      realize_channel)
from .network import (Link, NetworkScenario, sample_point_near,
                      update_aggressor_count, entry_sequence, COUNT_THRESHOLD_DB)
from .interference import (InterferenceProfile, sinr, sinr_linear, capacity,
                           multiuser_efficiency, outage, victim_energy_tables,
                           ScenarioEnergies, EnsembleEvaluator)
from .qlearning import Hyperparams, QTable, train
from .experiments import (ExperimentConfig, run, export_ambiguity_surface,
                          generate_drop)

__version__ = "0.1.0"

__all__ = [
    "PotsimError", "ParameterError", "ConfigError", "DegenerateFilterError",
    "PolicyUnavailableError", "MissingArtifactError",
    "GAUSSIAN", "RRC", "IOTA", "FILTER_FAMILIES", "LatticeConfig",
    "PrototypeFilter", "make_gaussian", "make_rrc", "make_iota",
    "filter_factory", "ambiguity", "CrossAmbiguity",
    "ChannelModel", "ChannelRealization", "free_space_path_loss",
    "realize_channel",
    "Link", "NetworkScenario", "sample_point_near", "update_aggressor_count",
    "entry_sequence", "COUNT_THRESHOLD_DB",
    "InterferenceProfile", "sinr", "sinr_linear", "capacity",
    "multiuser_efficiency", "outage", "victim_energy_tables",
    "ScenarioEnergies", "EnsembleEvaluator",
    "Hyperparams", "QTable", "train",
    "ExperimentConfig", "run", "export_ambiguity_surface", "generate_drop",
    "__version__",
]
