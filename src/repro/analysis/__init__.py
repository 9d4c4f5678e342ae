"""Analysis utilities: CDFs, time series, per-figure statistics, reports.

Everything that turns raw datasets/traces into the numbers the paper's
tables and figures report lives here, so the experiment runners in
:mod:`repro.experiments` stay thin.
"""

from repro.analysis.cdf import Cdf
from repro.analysis.timeseries import DailySeries
from repro.analysis.broadcast_stats import (
    broadcast_length_cdf,
    comments_cdf,
    creations_per_user_cdf,
    hearts_cdf,
    table1_rows,
    viewers_per_broadcast_cdf,
    views_per_user_cdf,
)
from repro.analysis.social_stats import followers_vs_viewers, table2_rows
from repro.analysis.plots import ascii_cdf, ascii_series, ascii_stacked_bars
from repro.analysis.report import format_table, render_cdf_summary, render_series

__all__ = [
    "Cdf",
    "DailySeries",
    "table1_rows",
    "broadcast_length_cdf",
    "viewers_per_broadcast_cdf",
    "comments_cdf",
    "hearts_cdf",
    "views_per_user_cdf",
    "creations_per_user_cdf",
    "table2_rows",
    "followers_vs_viewers",
    "format_table",
    "render_cdf_summary",
    "render_series",
    "ascii_cdf",
    "ascii_series",
    "ascii_stacked_bars",
]
