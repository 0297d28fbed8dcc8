"""Representations and R-matrices of quantized sl2, at generic q and at roots of unity."""

from .qnum import (DenominatorVanishes, QParam, RefusedInput, gauss_binom, gen_binom,
                   matrix_fractional_power, nilpotent_expm, qbinom, qbinom_table,
                   qexp_truncated, qfact, qint, qnumber, qpochhammer_truncated, unsym_qnum)
from .tensorop import (EmptySafeWindow, TensorOperator, embed_two_site, kron2,
                       masked_max_abs, safe_mask, ybe_defect)
from .reps import (InadmissibleParameters, Rep, casimir, central_check, coproduct,
                   cyclic, defining_relations_residual, opposite_coproduct,
                   semicyclic, tensor_rep, truncated_verma)
from .rfinite import (cartan_weight_vector, e_derivation_matrix, intertwine_residual,
                      quasitriangularity_residual, r_generic_universal,
                      r_reshetikhin_product, r_verma_direct, renormalized_raising_power,
                      ybe_residual)
from .raffine import (ImaginaryRootImages, OracleDiverges, PoleError, SpectralOverflow,
                      UnsupportedOrder, affine_coproduct_images, affine_intertwine_residual,
                      central_affine_check, decompos_product, drinfeld_generators,
                      drinfeld_relation_check, eval_generators, eval_imaginary_prime,
                      eval_root_vectors, f_scalar, noncentral_residual, r_spectral,
                      rminus_closed, rminus_product, rplus_closed, rplus_product,
                      rzero_bar, rzero_bar_eigenvalue, rzero_exponential,
                      schur_forward, schur_to_imaginary, spectral_ybe_residual)
from .cpotts import (CurveSpec, DegenerateCurve, UnresolvedConstraints, curve_residual,
                     export_boltzmann, fn_commutation_residual, on_curve_partner,
                     r_semicyclic, solve_intertwiner)

__version__ = "0.1.0"
