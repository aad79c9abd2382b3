"""memnet: two-layer network memorization constructions and the neuron
count / total weight trade-offs between them."""

__version__ = "0.1.0"
