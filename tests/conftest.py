import numpy as np
import pytest
from hypothesis import settings

from tarstop.corpus import Topic

# More examples for the run/qrels parse agreement and the input fuzz tests,
# whose contract is what the parsers accept: ``--hypothesis-profile=parsers``.
settings.register_profile("parsers", max_examples=2000)


def make_topic(labels, topic_id="t1"):
    return Topic(topic_id, labels)


def prefix_count(topic):
    """Relevant documents among the topic's first r, for r = 0..N, by plain cumsum."""
    return np.concatenate(([0], np.cumsum(topic.labels)))


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


@pytest.fixture(autouse=True)
def topic_cache_dir(tmp_path_factory, monkeypatch):
    """Each test gets its own empty topic cache, never the user's."""
    path = tmp_path_factory.mktemp("topic-cache")
    monkeypatch.setenv("TARSTOP_CACHE_DIR", str(path))
    return path


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
