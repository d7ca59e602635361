"""forrlab: a desk-scale lab for the XOR-lifted forrelation problem.

Submodules:

* :mod:`forrlab.boolean_fourier` - dense transforms, convolution, level
  masses, multilinear extension over {-1,1}^n;
* :mod:`forrlab.forrelation_dist` - the forrelation functional, its coupled
  Gaussian / sign / lifted input distributions, moment audits, instances;
* :mod:`forrlab.quantum_sim` - state-vector simulation of the
  {H, CNOT, R_pi/8, oracle, measure} gate set and the swap-test subroutines;
* :mod:`forrlab.protocol` - the simultaneous-message quantum protocol and
  the rectangle-partition Fourier audit of classical protocols;
* :mod:`forrlab.cli` - seeded experiment runner.
"""

from .boolean_fourier import (
    FourierSpectrum,
    FunctionTable,
    SignVector,
    convolve,
    fwht,
    fwht_columns,
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
    sample_forrelation,
    sample_gaussian,
    sample_lifted,
    truncate,
)
from .protocol import (
    QuantumProtocolConfig,
    RectanglePartition,
    advantage,
    default_copies,
    l2_audit,
    majority_amplify,
    protocol_H,
    run_quantum_protocol,
)
from .quantum_sim import (
    Circuit,
    StateVector,
    apply_gate,
    bell_pairs,
    controlled_h,
    e_operator,
    swap_test,
)

__version__ = "0.1.0"
