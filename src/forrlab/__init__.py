"""forrlab: a desk-scale lab for the XOR-lifted forrelation problem.

Submodules:

* :mod:`forrlab.boolean_fourier` - dense transforms, convolution, level
  masses, multilinear extension over {-1,1}^n;
* :mod:`forrlab.forrelation_dist` - the forrelation functional, its coupled
  Gaussian / sign / lifted input distributions, moment audits, instances;
* :mod:`forrlab.quantum_sim` - state-vector simulation of the
  {H, CNOT, R_pi/8, oracle, measure} gate set, its controlled-H and
  Bell-pair gate lists, and swap-test probabilities and shots;
* :mod:`forrlab.protocol` - the simultaneous-message quantum protocol and
  the rectangle-partition Fourier audit of classical protocols;
* :mod:`forrlab.cli` - seeded experiment runner.

Importing forrlab before numpy sets ``OPENBLAS_THREAD_TIMEOUT=4`` unless it
is already set, so idle OpenBLAS workers sleep at once.
"""

import os

# An idle OpenBLAS worker busy-waits for 2^28 cycles (about 0.1 s) after
# numpy loads and after every threaded product before it sleeps; a short
# run spends its whole life beside that spinning thread, and the Monte Carlo
# threads share a core with it.  4 is the smallest timeout OpenBLAS takes:
# idle workers then sleep at once, and the thread count is unchanged.
# OpenBLAS reads the variable when numpy loads it, which the next import
# does; a value the user set wins, and a numpy already loaded keeps its own.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .boolean_fourier import (
    FourierSpectrum,
    FunctionTable,
    SignVector,
    convolve,
    fwht,
    inverse_spectrum,
    level_mass,
    multilinear_eval,
    spectrum,
)
from .errors import (
    ForrlabError,
    InvariantError,
    PartitionError,
    ResourceLimitError,
    SamplingFailureError,
)
from .forrelation_dist import (
    ForrParams,
    InstanceMode,
    Label,
    LiftedInstance,
    classify,
    forr,
    gaussian_moment,
    generate_instance,
    planted_instance,
    truncate,
)
from .protocol import (
    QuantumProtocolConfig,
    RectanglePartition,
    advantage,
    default_copies,
    l2_audit,
    protocol_H,
    run_quantum_protocol,
)
from .quantum_sim import (
    Circuit,
    StateVector,
    apply_gate,
    e_operator,
)

__version__ = "0.1.0"
