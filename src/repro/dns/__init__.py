"""DNS substrate: LDNS population, caching, ECS, authoritative redirection."""

from repro.dns.authoritative import (
    ANYCAST_TARGET,
    DEFAULT_TTL_SECONDS,
    AnycastPolicy,
    AuthoritativeServer,
    DnsQuery,
    DnsQueryRecord,
    DnsResponse,
    RedirectionPolicy,
    StaticMappingPolicy,
)
from repro.dns.cache import TtlCache
from repro.dns.ecs import EcsOption, ecs_key_for_prefix
from repro.dns.ldns import (
    LdnsConfig,
    LdnsDirectory,
    LdnsKind,
    LdnsServer,
)

__all__ = [
    "ANYCAST_TARGET",
    "DEFAULT_TTL_SECONDS",
    "AnycastPolicy",
    "DnsQuery",
    "DnsQueryRecord",
    "AuthoritativeServer",
    "DnsResponse",
    "EcsOption",
    "LdnsConfig",
    "LdnsDirectory",
    "LdnsKind",
    "LdnsServer",
    "RedirectionPolicy",
    "StaticMappingPolicy",
    "TtlCache",
    "ecs_key_for_prefix",
]
