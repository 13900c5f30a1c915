"""Generalized binomial states of the quantized field.

Construction of the N-photon generalized binomial states, their exact
correspondence with coherent atomic states through the Holstein-Primakoff
pseudo-angular-momentum algebra, the orthonormal ladder ("Delta") basis,
the over-complete basis with its resolution of identity, and the
quadrature-squeezing indexes, all with numerically verified operator
identities. The brute-force references that verify and the tests check them
against are in gbstates.oracles, which this package does not re-export.
"""

from .cas import (
    CasParams,
    SpinJOperators,
    cas_expansion_check,
    cas_identity_resolution,
    cas_overlap_modulus_sq,
    cas_state,
    rotated_cas_operators,
    rotation_operator_spin,
    spin_j_operators,
)
from .delta_basis import DeltaBasis, delta_basis, delta_state
from .gbs import (
    BlochAngles,
    GbsParams,
    angles_to_params,
    coherent_state_truncated,
    gbs_overlap,
    gbs_state,
    orthogonal_partner,
    params_to_angles,
)
from .hilbert import (
    OperatorMatrix,
    StateVector,
    adjoint,
    apply,
    basis_state,
    commutator,
    identity,
    inner,
)
from .hp_algebra import (
    PseudoSpinSet,
    RotationSpec,
    composition_angles,
    composition_residual,
    hp_operators,
    link_operator,
    rotated_operators,
    rotation_operator,
)
from .resolution import (
    ExpansionAmplitude,
    SphereQuadrature,
    expansion_amplitude,
    expansion_amplitude_series,
    identity_resolution,
    reconstruct,
)
from .squeezing import (
    QuadratureStats,
    SqueezeRow,
    SqueezingTerms,
    closed_form_indexes,
    direct_stats,
    squeeze_scan,
    squeezing_terms,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # verify, and the oracles it imports, are loaded only when first asked for:
    # an import of the package, or a CLI subcommand other than verify, needs neither
    if name in ("VerifyConfig", "run_verification"):
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
