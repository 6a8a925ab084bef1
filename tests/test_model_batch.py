"""``run_model_batch``: an in-order loop over ``run_scheduler``.

The contract is that a batch returns exactly what one
:func:`~repro.engine.run_scheduler` call per item returns, in input
order, whatever the item's engine, port model or scenario; the first
item that raises propagates its exception; and ``counters`` reports
every item as scalar.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.blocks import ProblemShape
from repro.engine import BatchItem, run_model_batch, run_scheduler
from repro.platform import Platform, perturbed, scaled_bandwidth
from repro.scenarios import Scenario
from repro.schedulers import HoLM, section8_scheduler

SHAPE = ProblemShape(r=14, s=36, t=40)
BASE = Platform.homogeneous(6, c=1.0, w=0.5, m=24)


class BadGap(HoLM):
    """A scheduler whose plan no engine accepts: gap 3 is no layout."""

    name = "BadGap"
    generation_gap = 3


def _item(algo, platform=BASE, shape=SHAPE, **kw):
    return BatchItem(
        scheduler=(lambda: section8_scheduler(algo)),
        platform=platform, shape=shape, **{"engine": "model", **kw},
    )


def _mixed_items():
    rng = np.random.default_rng(7)
    slowed = Scenario.stationary(BASE).with_slowdown(1, 25.0, 3.0)
    return [
        _item("HoLM"),
        _item("ODDOML", platform=scaled_bandwidth(BASE, 1.25)),
        _item("OBMM", platform=perturbed(BASE, rng, 0.02)),
        _item("ORROML", platform=Platform.homogeneous(4, c=1.0, w=0.5, m=35),
              shape=ProblemShape(r=8, s=8, t=20)),
        _item("BMM", two_port=True),
        _item("HoLM", engine="fast"),
        _item("OMMOML", engine="fast", two_port=True),
        _item("DDOML", scenario=slowed),
        _item("HoLM", engine="fast", scenario=slowed),
    ]


def _scalar(item):
    return run_scheduler(
        item.scheduler(), item.platform, item.shape,
        two_port=item.two_port, check_memory=item.check_memory,
        engine=item.engine, scenario=item.scenario,
    )


class TestBatchLoop:
    def test_mixed_items_match_run_scheduler_in_order(self):
        items = _mixed_items()
        got = run_model_batch(items)
        assert len(got) == len(items)
        for i, (item, result) in enumerate(zip(items, got)):
            assert type(result) is type(_scalar(item)), i
            assert result == _scalar(item), i

    def test_counters_report_every_item_scalar(self):
        items = _mixed_items()
        counters: dict = {}
        run_model_batch(items, counters=counters)
        assert counters == {"vectorized": 0, "scalar": len(items)}
        assert run_model_batch([], counters=counters) == []
        assert counters == {"vectorized": 0, "scalar": 0}

    def test_first_failing_item_propagates(self):
        """The first bad item's error surfaces as-is, ahead of a later
        item's own error, and nothing after it runs."""
        evaluated = []

        def counted(algo):
            def factory():
                evaluated.append(algo)
                return section8_scheduler(algo)
            return factory

        tiny = Platform.homogeneous(2, c=1.0, w=0.5, m=2)
        items = [
            BatchItem(counted("HoLM"), BASE, SHAPE, engine="model"),
            BatchItem(BadGap, BASE, SHAPE, engine="model"),
            BatchItem(counted("ODDOML"), tiny, SHAPE, engine="model"),
        ]
        with pytest.raises(ValueError, match="too small"):
            _scalar(items[2])
        evaluated.clear()
        with pytest.raises(ValueError, match="generation_gap"):
            run_model_batch(items)
        assert evaluated == ["HoLM"]
