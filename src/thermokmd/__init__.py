"""Mode decomposition toolkit for spatially located sensor time series.

Decomposes multichannel records into single-frequency spatio-temporal
modes, ranks them by an energy norm, estimates the dominant mode by phase
averaging, and differentiates it over the sensor layout to produce a
gradient (heat-flux proxy) field.  Includes synthetic generators with
known ground truth: an analytic multi-tone oracle and a thermostat-driven
room simulator.
"""

__version__ = "0.1.0"

from .errors import (
    ArgumentError,
    BiasWarning,
    DegenerateDataError,
    DuplicateError,
    GeometryError,
    LayoutError,
    LayoutFileError,
    NumericalError,
    ParseError,
    PeriodError,
    StabilityError,
    TooShortError,
    ToolkitError,
    UniformityError,
)
from .gradient import (
    FluxSource,
    GradientField,
    flux_consistency,
    gradient_field,
    median_spacing,
    rms_gradient,
)
from .phaseavg import PhaseAverageResult, harmonic_amplitude, phase_average
from .spectral import (
    ModeEntry,
    ModeTable,
    RitzPair,
    companion_kmd,
    decompose,
    energy_norm,
    hankel_dmd,
    mode_table,
    period_of,
    rank_modes,
    reconstruct,
)
from .synth import (
    AirConditioner,
    AnalyticSpec,
    PlaneWaveField,
    PolynomialField,
    RoomSimSpec,
    SwitchEvent,
    Tone,
    default_analytic_spec,
    default_layout,
    default_room_spec,
    generate_analytic,
    simulate_room,
    switch_cycle_period,
)
from .timeseries import (
    GridSpec,
    SensorLayout,
    SnapshotMatrix,
    load_layout,
    load_snapshots,
    remove_mean,
    write_layout,
    write_snapshots,
)

__all__ = [
    "__version__",
    # errors
    "ToolkitError", "ParseError", "UniformityError", "TooShortError",
    "DuplicateError", "GeometryError", "ArgumentError", "LayoutError", "LayoutFileError",
    "PeriodError", "DegenerateDataError", "NumericalError", "StabilityError", "BiasWarning",
    # time series
    "SnapshotMatrix", "SensorLayout", "GridSpec",
    "load_snapshots", "write_snapshots", "load_layout", "write_layout",
    "remove_mean",
    # spectral
    "RitzPair", "ModeEntry", "ModeTable",
    "hankel_dmd", "companion_kmd", "decompose", "mode_table",
    "energy_norm", "period_of", "rank_modes", "reconstruct",
    # phase averaging
    "PhaseAverageResult", "phase_average", "harmonic_amplitude",
    # gradients
    "GradientField", "FluxSource",
    "gradient_field", "rms_gradient", "flux_consistency", "median_spacing",
    # synthesis
    "AnalyticSpec", "Tone", "PolynomialField", "PlaneWaveField",
    "RoomSimSpec", "AirConditioner", "SwitchEvent",
    "generate_analytic", "simulate_room", "switch_cycle_period",
    "default_layout", "default_room_spec", "default_analytic_spec",
]
