"""Golden networks: one fit per construction on a fixed sphere dataset, with
k, total weight, stop reason and the sha256 of the network's JSON pinned, and
both Baum fits on a multi-group dataset where label 1 is the majority.

A change that alters the networks a method builds fails here, down to one bit
of one weight.  Such a change updates these values in the same commit and
records the drift in CHANGES.md.  The values hold with one BLAS thread and
with two.
"""

import hashlib

import pytest

from memnet.constructive import baum_relu_fit, baum_threshold_fit
from memnet.data import rademacher_labels, sample_sphere
from memnet.harmonic import harmonic_fit
from memnet.network import total_weight
from memnet.ntk import ntk_fit


_SHA256 = {
    "harmonic": "0708df212de64e7d71d4910b1edfd7cbea1f5743b7220bd0881a34db3e1dd5b2",
    "ntk": "388a5ac5cb384b74be756ff13bfb1f61ade48721d4130efd9c8d85b734530de2",
    "baum-relu": "73ad2411e41d3735b4efb537db58decf5dbd98016bff337d63545705b2df12d1",
    "baum_relu_fit": "1e2cbf0727b51329b45785a0571856182c01ef0af9919b3d6e28023c451be387",
    "baum_threshold_fit": "f9ae6320deea4b8f226a1cb88391655d87b69ebbefe7e8d025665bdc0c368703",
}


def _sha256(net):
    return hashlib.sha256(net.to_json().encode()).hexdigest()


def _fit(method):
    ds = rademacher_labels(sample_sphere(60, 80, 0), 1)
    if method == "baum-relu":  # exact: no boosting trace, no stop reason
        net = baum_relu_fit(ds, seed=0)
        return net, None
    res = (harmonic_fit if method == "harmonic" else ntk_fit)(ds, 0.3, seed=0)
    return res.network, res.trace.notes["stop_reason"]


@pytest.mark.parametrize("method, k, weight, stop_reason", [
    ("harmonic", 204, 30.448326735938533, "epsilon reached"),
    ("ntk", 6, 3423.7752025200843, "epsilon reached"),
    ("baum-relu", 4, 37.29900491775697, None),
])
def test_golden_network(method, k, weight, stop_reason):
    net, stop = _fit(method)
    assert (net.k, stop) == (k, stop_reason)
    assert total_weight(net) == pytest.approx(weight, rel=1e-12)
    assert _sha256(net) == _SHA256[method]


@pytest.mark.parametrize("fit, k, weight", [
    (baum_relu_fit, 40, 1692170.7136158303),
    (baum_threshold_fit, 11, 11.010703939646286),
])
def test_golden_baum_majority_ones(fit, k, weight):
    """Ten groups of 20 points for the ReLU fit; the threshold fit slabs the
    96 zeros and adds the constant neuron."""
    ds = rademacher_labels(sample_sphere(200, 20, 0), 1)
    ds = ds.with_labels((ds.labels + 1.0) / 2.0)
    assert ds.labels.sum() == 104
    net = fit(ds, seed=0)
    assert net.k == k
    assert total_weight(net) == pytest.approx(weight, rel=1e-12)
    assert _sha256(net) == _SHA256[fit.__name__]
