"""memnet: two-layer network memorization constructions and the neuron
count / total weight trade-offs between them."""

from .data import (Dataset, GenericityReport, general_position, genericity, load_csv,
                   load_dataset, rademacher_labels, sample_sphere, save_dataset)
from .network import (FitTrace, Neuron, StepProposal, TwoLayerNetwork, boost_fit,
                      evaluate, total_weight)
from .hermite import he_coeffs, hermite_eval
from .constructive import (DerivativeNeuronPair, baum_relu_fit, baum_threshold_fit,
                           exact_fit_generic)
from .ntk import ntk_fit, ntk_step
from .harmonic import (ComplexNeuron, DirectionalDecomposition, choose_degree,
                       decompose_directions, harmonic_fit, perturbation_vector,
                       relu_mixture, sample_complex_neuron, single_neuron_step)
from .bounds import WeightBoundReport, verify_weight_bound

__version__ = "0.1.0"
