"""memnet: two-layer network memorization constructions and the neuron
count / total weight trade-offs between them."""

from .data import (Dataset, GenericityReport, general_position, genericity, load_csv,
                   load_dataset, rademacher_labels, sample_sphere, save_dataset)
from .network import (FitTrace, Neuron, StepProposal, TwoLayerNetwork, boost_fit,
                      evaluate, total_weight)
from .hermite import (HermiteExpansion, eval_monomial, expand_activation_derivative,
                      he_coeffs, hermite_eval, orthogonality_check)
from .constructive import (DerivativeNeuronPair, baum_relu_fit, baum_threshold_fit,
                           exact_fit_generic)
from .ntk import (arcsin_gram, general_ntk_bound, gram_lower_bound_check,
                  ntk_fit, ntk_step)
from .harmonic import (ComplexNeuron, DirectionalDecomposition, choose_degree,
                       decompose_directions, harmonic_fit, hermite_gram,
                       mixture_expectation, perturbation_vector, relu_mixture,
                       sample_complex_neuron, single_neuron_step)
from .bounds import (WeightBoundReport, single_neuron_correlation_cap,
                     verify_weight_bound)

__version__ = "0.1.0"
