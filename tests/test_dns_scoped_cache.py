"""Tests for RFC 7871 ECS scopes on authoritative DNS answers."""

from repro.dns.authoritative import (
    AnycastPolicy,
    AuthoritativeServer,
    DnsQuery,
    StaticMappingPolicy,
)
from repro.dns.ecs import EcsOption
from repro.net.ip import IPv4Address


def addr(text):
    return IPv4Address.parse(text)


class TestAuthoritativeScopes:
    def test_ecs_decision_carries_scope(self):
        policy = StaticMappingPolicy(ecs_mapping={"10.0.0.0/24": "fe-nyc"})
        server = AuthoritativeServer(policy)
        query = DnsQuery(
            "h", "ldns-1", ecs=EcsOption.for_address(addr("10.0.0.7"))
        )
        response = server.resolve(query)
        assert response.target_id == "fe-nyc"
        assert response.ecs_scope_len == 24

    def test_ldns_decision_has_zero_scope(self):
        policy = StaticMappingPolicy(ldns_mapping={"ldns-1": "fe-lon"})
        server = AuthoritativeServer(policy)
        query = DnsQuery(
            "h", "ldns-1", ecs=EcsOption.for_address(addr("10.9.9.9"))
        )
        response = server.resolve(query)
        assert response.target_id == "fe-lon"
        assert response.ecs_scope_len == 0

    def test_plain_policy_has_zero_scope(self):
        server = AuthoritativeServer(AnycastPolicy())
        query = DnsQuery(
            "h", "ldns-1", ecs=EcsOption.for_address(addr("10.0.0.1"))
        )
        assert server.resolve(query).ecs_scope_len == 0

