import numpy as np
import pytest
from hypothesis import settings

from tarstop.corpus import Collection, first_reaching
from tarstop.metrics import aggregate

# More examples for the run/qrels parse agreement and the input fuzz tests,
# whose contract is what the parsers accept: ``--hypothesis-profile=parsers``.
settings.register_profile("parsers", max_examples=2000)


def make_topic(labels, topic_id="t1"):
    """A collection of one topic."""
    return Collection.of([topic_id], [labels])


def make_collection(*rankings):
    """A collection of these rankings' topics, named t0, t1, ..."""
    return Collection.of([f"t{k}" for k in range(len(rankings))], rankings)


def subset(collection, keep):
    """A collection of the topics at indices ``keep``, in that order."""
    parts = topic_labels(collection)
    return Collection.of([collection.topic_ids[k] for k in keep], [parts[k] for k in keep])


def topic_labels(collection):
    """Each topic's labels, cut from the collection's vector at its bounds."""
    return np.split(collection.labels, collection.bounds[1:-1])


def prefix_count(labels):
    """Relevant documents among the first r of ``labels``, for r = 0..N, by plain cumsum."""
    return np.concatenate(([0], np.cumsum(labels)))


def oracle_rank(labels, target_recall):
    """The first rank of ``labels`` meeting the target, by the one rule over their own prefix count."""
    return first_reaching(prefix_count(labels), 0, int(np.sum(labels)), target_recall)


def topic_metrics(result, topics, target_recall=None):
    """``aggregate``'s metrics of one result row, at ``target_recall`` if given."""
    if target_recall is not None:
        result = result._replace(target_recall=target_recall)
    return aggregate([result], topics).per_topic[0]


def finite_difference(loss_fn, flats, h=1e-5):
    """Central-difference gradients of loss_fn() w.r.t. every element of
    each 1-D buffer in ``flats``, such as ``MlpParams.flat``, perturbed in
    place."""
    grads = [np.zeros_like(flat) for flat in flats]
    for flat, grad in zip(flats, grads):
        for index, original in enumerate(flat.tolist()):
            flat[index] = original + h
            up = loss_fn()
            flat[index] = original - h
            down = loss_fn()
            flat[index] = original
            grad[index] = (up - down) / (2.0 * h)
    return grads


def max_rel_error(analytic, numeric, floor=1e-6):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


def reference_backward(params, cache, grad_out):
    """Per-layer gradients as separate arrays, in ``arrays()`` order: ``nets.backward``
    as it was before it wrote into one buffer, one matrix product per layer."""
    g = np.atleast_2d(grad_out)
    grad_w, grad_b = [], []
    for k in reversed(range(len(params.weights))):
        grad_w.insert(0, cache[k].T @ g)
        grad_b.insert(0, g.sum(axis=0))
        if k > 0:
            g = (g @ params.weights[k].T) * (1.0 - cache[k] ** 2)
    return [*grad_w, *grad_b]


@pytest.fixture(autouse=True)
def topic_cache_dir(tmp_path_factory, monkeypatch):
    """Each test gets its own empty topic cache, never the user's."""
    path = tmp_path_factory.mktemp("topic-cache")
    monkeypatch.setenv("TARSTOP_CACHE_DIR", str(path))
    return path


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
