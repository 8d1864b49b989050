"""Front-end servers: the CDN's edge presence.

A front-end terminates client TCP connections at a metro and relays
requests to a backend data center (§1 of the paper).  Each front-end
location carries both the shared anycast address and its own unicast /24
(§3.1), so beacon measurements can target a specific location.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

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


def nearest_frontends(
    frontends: Tuple[FrontEnd, ...], point: GeoPoint, count: int
) -> Tuple[FrontEnd, ...]:
    """The ``count`` front-ends nearest to ``point``, closest first.

    Ties break on frontend_id so the ordering is deterministic.
    """
    ranked = sorted(
        frontends, key=lambda fe: (fe.distance_km(point), fe.frontend_id)
    )
    return tuple(ranked[:count])
