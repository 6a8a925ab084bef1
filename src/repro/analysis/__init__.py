"""Analysis and reporting: Gantt rendering, metric tables.

* :mod:`repro.analysis.gantt` — ASCII Gantt charts of selection results
  and engine traces (regenerates the look of Figures 7 and 8).
* :mod:`repro.analysis.tables` — fixed-width table formatting for the
  experiment harness and CLI.
* :mod:`repro.analysis.metrics` — summary statistics over traces.
"""

import importlib

from repro.analysis.tables import format_table

__all__ = [
    "TraceSummary",
    "format_table",
    "gantt_selection",
    "gantt_trace",
    "summarize_trace",
]

def __getattr__(name: str):  # numpy/engine-backed names load on first use
    module = {"TraceSummary": "metrics", "summarize_trace": "metrics",
              "gantt_selection": "gantt", "gantt_trace": "gantt"}.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
