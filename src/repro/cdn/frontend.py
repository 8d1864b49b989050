"""Front-end servers: the CDN's edge presence.

A front-end terminates client TCP connections at a metro and relays
requests to a backend data center (§1 of the paper).  Each front-end
location carries both the shared anycast address and its own unicast /24
(§3.1), so beacon measurements can target a specific location.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.geo.coords import GeoPoint
from repro.geo.metros import Metro
from repro.geo.regions import Region
from repro.net.ip import IPv4Prefix


@dataclass(frozen=True)
class FrontEnd:
    """One front-end location.

    Attributes:
        frontend_id: Stable identifier, e.g. ``"fe-lon"``.
        metro: The metro the front-end is deployed in (front-ends sit at
            peering points, per §3.1).
        unicast_prefix: The /24 announced only at this location's peering
            point, used for head-to-head unicast measurements.
    """

    frontend_id: str
    metro: Metro
    unicast_prefix: IPv4Prefix

    @property
    def metro_code(self) -> str:
        """Code of the hosting metro."""
        return self.metro.code

    @property
    def location(self) -> GeoPoint:
        """Coordinates of the front-end (its metro center)."""
        return self.metro.location

    @property
    def region(self) -> Region:
        """Continental region of the front-end."""
        return self.metro.region

    def distance_km(self, point: GeoPoint) -> float:
        """Great-circle distance from ``point`` to this front-end."""
        return self.location.distance_km(point)


#: Cells (points x front-ends) of one block of the haversine table: each
#: float64 temporary of a block stays at 1 MiB for any population.
_BLOCK_CELLS = 1 << 17

#: Slack on the haversine term ``h`` (distance = 2R asin(sqrt(min(1, h))),
#: ``h`` in [0, 1]) inside which front-ends are re-ranked by the exact
#: scalar key.  numpy's and the scalar ``h`` differ by a few units in the
#: last place (~1e-16), and two terms more than 1e-12 apart give scalar
#: distances at least ``2R * 1e-12`` km (~1.3e-8 km) apart, far above
#: the scalar haversine's rounding: every front-end of the exact top
#: ``count`` is therefore a candidate.  The slack is on ``h``, not on the
#: distance, because near a front-end's antipode ``asin`` turns a
#: last-bit difference in ``h`` into a distance error of up to ~2e-4 km.
_CONFIRM_SLACK = 1e-12


def rank_frontends(
    frontends: Sequence[FrontEnd], points: Sequence[GeoPoint], count: int
) -> List[Tuple[Tuple[float, FrontEnd], ...]]:
    """The ``count`` front-ends nearest each point, closest first, as
    ``(distance_km, frontend)`` pairs.

    Row ``i`` equals ``sorted(frontends, key=lambda fe:
    (fe.distance_km(p), fe.frontend_id))[:count]`` for ``p = points[i]``,
    each front-end beside its ``fe.distance_km(p)``.  One numpy
    haversine table over points x front-ends, in row blocks, gives each
    row's ``count``-th smallest haversine term (``np.partition``); only
    the front-ends within ``_CONFIRM_SLACK`` of it are sorted by that
    exact key, so the rows equal the scalar sort by construction.  A
    ``count`` below 1 gives empty rows.
    """
    frontends = tuple(frontends)
    keep = min(count, len(frontends))
    if keep < 1:
        return [() for _ in points]
    fe_lat = np.radians([fe.location.lat for fe in frontends])
    fe_lon = np.array([fe.location.lon for fe in frontends])
    fe_cos = np.cos(fe_lat)
    rows: List[Tuple[Tuple[float, FrontEnd], ...]] = []
    step = max(1, _BLOCK_CELLS // len(frontends))
    for start in range(0, len(points), step):
        block = points[start:start + step]
        lat = np.radians([point.lat for point in block])[:, None]
        lon = np.array([point.lon for point in block])[:, None]
        terms = np.sin((lat - fe_lat) / 2.0) ** 2 + np.cos(lat) * fe_cos * (
            np.sin(np.radians(lon - fe_lon) / 2.0) ** 2
        )
        kth = np.partition(terms, keep - 1, axis=1)[:, keep - 1]
        hits, columns = np.nonzero(terms <= kth[:, None] + _CONFIRM_SLACK)
        bounds = np.searchsorted(hits, np.arange(len(block) + 1)).tolist()
        columns = columns.tolist()
        for index, point in enumerate(block):
            keyed = sorted(
                (frontends[c].distance_km(point), frontends[c].frontend_id, c)
                for c in columns[bounds[index]:bounds[index + 1]]
            )[:keep]
            rows.append(tuple((d, frontends[c]) for d, _, c in keyed))
    return rows


def nearest_frontends(
    frontends: Tuple[FrontEnd, ...], point: GeoPoint, count: int
) -> Tuple[FrontEnd, ...]:
    """The ``count`` front-ends nearest to ``point``, closest first.

    The one-point call of :func:`rank_frontends`: ties break on
    frontend_id so the ordering is deterministic.
    """
    return tuple(fe for _, fe in rank_frontends(frontends, (point,), count)[0])
