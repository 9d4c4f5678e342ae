"""Figure 5: CDF of comments and hearts per broadcast."""

from __future__ import annotations

from repro.analysis.broadcast_stats import comments_cdf, hearts_cdf
from repro.analysis.plots import ascii_cdf
from repro.analysis.report import render_cdf_summary
from repro.experiments.context import DEFAULT_SCALE, DEFAULT_SEED, meerkat_trace, periscope_trace
from repro.experiments.registry import experiment


@experiment(
    "fig5",
    "Figure 5: total # of comments (hearts) per broadcast",
    "~10% of Periscope broadcasts get >100 comments and >1000 hearts; the "
    "100-commenter cap flattens the comment tail while hearts run to 1.35M.",
)
def run(scale: float = DEFAULT_SCALE, seed: int = DEFAULT_SEED) -> tuple[dict, str]:
    periscope = periscope_trace(scale, seed).dataset
    meerkat = meerkat_trace(scale, seed).dataset

    p_hearts = hearts_cdf(periscope)
    p_comments = comments_cdf(periscope)
    m_hearts = hearts_cdf(meerkat)
    m_comments = comments_cdf(meerkat)

    data = {
        "periscope_over_1000_hearts": p_hearts.fraction_above(1000.0),
        "periscope_over_100_comments": p_comments.fraction_above(100.0),
        "periscope_max_hearts": p_hearts.values[-1],
        "hearts_comment_tail_ratio": p_hearts.quantile(0.99) / max(p_comments.quantile(0.99), 1.0),
        "periscope_hearts_cdf": p_hearts,
        "periscope_comments_cdf": p_comments,
        "meerkat_hearts_cdf": m_hearts,
        "meerkat_comments_cdf": m_comments,
    }
    text = "\n".join(
        [
            ascii_cdf(
                {"P hearts": p_hearts, "P comments": p_comments},
                title="Figure 5 — CDF of engagement per broadcast (log x)",
                log_x=True,
            ),
            render_cdf_summary(
                {
                    "Periscope hearts": p_hearts,
                    "Periscope comments": p_comments,
                    "Meerkat hearts": m_hearts,
                    "Meerkat comments": m_comments,
                },
                title="Figure 5 — engagement per broadcast CDF",
            ),
            f"Periscope broadcasts with >1000 hearts: "
            f"{data['periscope_over_1000_hearts']:.1%} (paper: ~10%)",
            f"Periscope broadcasts with >100 comments: "
            f"{data['periscope_over_100_comments']:.1%} (paper: ~10%)",
            "Comment tail is capped by the 100-commenter limit; hearts are not "
            f"(p99 hearts/comments ratio: {data['hearts_comment_tail_ratio']:.0f}x).",
        ]
    )
    return data, text
