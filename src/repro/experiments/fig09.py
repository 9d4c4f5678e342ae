"""Figure 9: Wowza and Fastly server locations.

Figure 8 (the CDN architecture diagram) is encoded in the package
structure itself; Figure 9 is regenerated here from the datacenter
catalogs, together with the §4.1 co-location facts the paper derived from
its PlanetLab experiment.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.experiments.registry import experiment
from repro.geo.datacenters import (
    FASTLY_DATACENTERS,
    WOWZA_DATACENTERS,
    colocated_fastly,
    colocated_pairs,
)


@experiment(
    "fig9",
    "Figure 9: Wowza and Fastly server locations",
    "8 Wowza (EC2) DCs and 23 Fastly POPs; 6/8 Wowza DCs co-located with a "
    "Fastly POP in the same city, 7/8 on the same continent; the exception is "
    "South America (no Fastly POP).",
)
def run() -> tuple[dict, str]:
    pairs = colocated_pairs()
    same_city = {wowza.name for wowza, _ in pairs}
    same_continent = {
        wowza.name
        for wowza in WOWZA_DATACENTERS
        if any(f.continent == wowza.continent for f in FASTLY_DATACENTERS)
    }
    rows = {}
    for wowza in WOWZA_DATACENTERS:
        gateway = colocated_fastly(wowza)
        rows[wowza.name] = {
            "city": wowza.city,
            "continent": wowza.continent,
            "colocated_fastly": gateway.name if wowza.name in same_city else "-",
            "gateway_pop": gateway.name,
        }
    data = {
        "wowza_count": len(WOWZA_DATACENTERS),
        "fastly_count": len(FASTLY_DATACENTERS),
        "colocated_count": len(same_city),
        "same_continent_count": len(same_continent),
        "fastly_cities": sorted(dc.city for dc in FASTLY_DATACENTERS),
    }
    text = "\n".join(
        [
            format_table(rows, title="Figure 9 — Wowza ingest DCs", row_header="wowza"),
            f"Fastly POPs ({len(FASTLY_DATACENTERS)}): "
            + ", ".join(data["fastly_cities"]),
            f"Co-located Wowza/Fastly pairs: {data['colocated_count']}/8 (paper: 6/8)",
            f"Same-continent Wowza DCs: {data['same_continent_count']}/8 (paper: 7/8)",
        ]
    )
    return data, text
