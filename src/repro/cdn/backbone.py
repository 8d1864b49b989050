"""The CDN's internal backbone: ingress peering point → front-end.

§3.1 of the paper fixes the intradomain policy this module implements:
"Microsoft intradomain policy then directs the client's request to the
front-end nearest to the peering point, not to the client."  Traffic that
ingresses at a metro hosting a front-end is served locally; traffic that
ingresses at a peering-only metro is carried to the geographically nearest
front-end, paying backbone distance — the §5 case-1 pathology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

from repro.errors import ConfigurationError
from repro.cdn.deployment import CdnDeployment
from repro.cdn.frontend import FrontEnd, rank_frontends
from repro.geo.metros import MetroDatabase


@dataclass(frozen=True)
class BackboneRoute:
    """Where the backbone carries traffic entering at one ingress metro."""

    ingress_metro: str
    frontend: FrontEnd
    #: Great-circle backbone distance from ingress to the front-end (km);
    #: zero when the ingress metro hosts the front-end.
    backbone_km: float


class CdnBackbone:
    """Ingress→front-end routing table for a deployment.

    The table is precomputed for every CDN PoP metro at construction, so
    lookups during measurement campaigns are dictionary reads.

    Args:
        live_frontends: Restrict routing to these front-end ids (all live
            when ``None``) — the failover machinery passes the survivors
            after a withdrawal.
    """

    def __init__(
        self,
        deployment: CdnDeployment,
        metro_db: MetroDatabase,
        live_frontends: Optional[FrozenSet[str]] = None,
    ) -> None:
        self._deployment = deployment
        if live_frontends is None:
            candidates = deployment.frontends
        else:
            candidates = tuple(
                fe
                for fe in deployment.frontends
                if fe.frontend_id in live_frontends
            )
            unknown = live_frontends - {
                fe.frontend_id for fe in deployment.frontends
            }
            if unknown:
                raise ConfigurationError(
                    f"unknown live front-ends {sorted(unknown)}"
                )
        if not candidates:
            raise ConfigurationError(
                "backbone needs at least one live front-end"
            )
        codes = sorted(deployment.pop_metros)
        locations = [metro_db.get(code).location for code in codes]
        nearest = rank_frontends(candidates, locations, 1)
        self._routes: Dict[str, BackboneRoute] = {}
        for code, ingress_location, ((_, best),) in zip(
            codes, locations, nearest
        ):
            self._routes[code] = BackboneRoute(
                ingress_metro=code,
                frontend=best,
                backbone_km=best.distance_km(ingress_location),
            )

    @property
    def deployment(self) -> CdnDeployment:
        """The deployment this backbone serves."""
        return self._deployment

    def route(self, ingress_metro: str) -> BackboneRoute:
        """Backbone route for traffic ingressing at a CDN PoP metro.

        Raises:
            ConfigurationError: if the metro is not a CDN PoP.
        """
        try:
            return self._routes[ingress_metro]
        except KeyError:
            raise ConfigurationError(
                f"metro {ingress_metro!r} is not a CDN peering point"
            ) from None

    def frontend_for_ingress(self, ingress_metro: str) -> FrontEnd:
        """The front-end serving traffic that ingresses at a metro."""
        return self.route(ingress_metro).frontend

    def ingress_metros(self) -> Tuple[str, ...]:
        """All CDN PoP metros, sorted."""
        return tuple(self._routes)
