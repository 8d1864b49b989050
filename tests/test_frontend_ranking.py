"""The batched nearest-front-end ranking (``rank_frontends``) equals a
scalar sort of every front-end by its great-circle distance key."""

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cdn.frontend as frontend_module
from repro.cdn.frontend import FrontEnd, nearest_frontends, rank_frontends
from repro.cdn.network import CdnNetwork
from repro.geo.coords import GeoPoint
from repro.geo.metros import Metro
from repro.geo.regions import Region
from repro.net.ip import IPv4Prefix

POLES_AND_ANTIMERIDIAN = (
    GeoPoint(90.0, 0.0),
    GeoPoint(-90.0, 0.0),
    GeoPoint(90.0, 180.0),
    GeoPoint(0.0, 180.0),
    GeoPoint(0.0, -180.0),
    GeoPoint(-45.0, -180.0),
)


def scalar_reference(frontends, point, count):
    """The ranking as a sort of every front-end by the scalar key."""
    return sorted(
        frontends, key=lambda fe: (fe.distance_km(point), fe.frontend_id)
    )[:count]


def make_frontend(index, frontend_id, location):
    metro = Metro(
        code=f"m{index}",
        name=f"metro {index}",
        country="zz",
        region=Region.EUROPE,
        location=location,
        population_m=1.0,
    )
    return FrontEnd(
        frontend_id, metro, IPv4Prefix.parse(f"198.18.{index}.0/24")
    )


def deployment(locations, ids=None):
    ids = ids or [f"fe-{index:02d}" for index in range(len(locations))]
    return tuple(
        make_frontend(index, frontend_id, location)
        for index, (frontend_id, location) in enumerate(zip(ids, locations))
    )


def antipode(point):
    lon = point.lon - 180.0 if point.lon > 0 else point.lon + 180.0
    return GeoPoint(-point.lat, lon)


def assert_matches_reference(frontends, points):
    """Every count from 1 to past the deployment size, every point."""
    for count in range(1, len(frontends) + 3):
        rows = rank_frontends(frontends, points, count)
        assert len(rows) == len(points)
        for point, row in zip(points, rows):
            expected = scalar_reference(frontends, point, count)
            assert [fe for _, fe in row] == expected, (point, count)
            assert [distance for distance, _ in row] == [
                fe.distance_km(point) for fe in expected
            ]
            assert nearest_frontends(frontends, point, count) == tuple(
                expected
            )


coordinates = st.builds(
    GeoPoint,
    lat=st.floats(min_value=-90.0, max_value=90.0),
    lon=st.floats(min_value=-180.0, max_value=180.0),
)
#: A coarse grid, so that deployments and points share coordinates and
#: distances tie.
grid = st.builds(
    GeoPoint,
    lat=st.sampled_from([-90.0, -30.0, 0.0, 30.0, 90.0]),
    lon=st.sampled_from([-180.0, -90.0, 0.0, 90.0, 180.0]),
)
locations = st.one_of(coordinates, grid)


@st.composite
def deployments_and_points(draw):
    sites = draw(st.lists(locations, min_size=1, max_size=12))
    ids = draw(st.permutations([f"fe-{i:02d}" for i in range(len(sites))]))
    frontends = deployment(sites, ids)
    on_sites = st.sampled_from(sites)
    points = draw(
        st.lists(
            st.one_of(
                locations,
                on_sites,
                on_sites.map(antipode),
                st.sampled_from(POLES_AND_ANTIMERIDIAN),
            ),
            max_size=20,
        )
    )
    return frontends, points


@settings(max_examples=150, deadline=None)
@given(deployments_and_points())
def test_random_deployments_match_the_scalar_sort(case):
    frontends, points = case
    assert_matches_reference(frontends, points)


def test_row_blocks_do_not_change_the_ranking(monkeypatch):
    monkeypatch.setattr(frontend_module, "_BLOCK_CELLS", 7)
    frontends = deployment([
        GeoPoint(51.5, -0.13), GeoPoint(40.7, -74.0), GeoPoint(35.7, 139.7),
        GeoPoint(51.5, -0.13), GeoPoint(-33.9, 151.2),
    ])
    points = [
        GeoPoint(lat, lon)
        for lat in (-60.0, -10.0, 35.0, 51.5)
        for lon in (-120.0, -0.13, 100.0)
    ]
    assert_matches_reference(frontends, points)


def test_identical_coordinates_break_ties_on_id():
    site = GeoPoint(48.85, 2.35)
    frontends = deployment(
        [site, site, GeoPoint(40.0, -74.0)], ids=["fe-b", "fe-a", "fe-c"]
    )
    points = [site, GeoPoint(50.0, 10.0)]
    for row in rank_frontends(frontends, points, 3):
        assert [fe.frontend_id for _, fe in row] == ["fe-a", "fe-b", "fe-c"]
    assert_matches_reference(frontends, points)


def test_point_on_a_frontend_ranks_it_first_at_zero():
    frontends = deployment(
        [GeoPoint(51.5, -0.13), GeoPoint(40.7, -74.0), GeoPoint(35.7, 139.7)]
    )
    for frontend in frontends:
        ((distance, nearest),) = rank_frontends(
            frontends, [frontend.location], 1
        )[0]
        assert nearest is frontend
        assert distance == 0.0
    assert_matches_reference(frontends, [fe.location for fe in frontends])


def test_poles_and_antimeridian():
    frontends = deployment([
        GeoPoint(0.0, 180.0),
        GeoPoint(0.0, -180.0),
        GeoPoint(89.9, 45.0),
        GeoPoint(-89.9, -135.0),
        GeoPoint(10.0, 179.99),
    ])
    assert_matches_reference(frontends, list(POLES_AND_ANTIMERIDIAN))


def test_antipode_hits_the_clamp():
    site = GeoPoint(10.0, 20.0)
    frontends = deployment([site, GeoPoint(-10.0, -159.0), GeoPoint(0, 0)])
    opposite = antipode(site)
    near_opposite = [
        GeoPoint(opposite.lat + offset, opposite.lon)
        for offset in (1e-9, -1e-7, 1e-5)
    ]
    assert_matches_reference(frontends, [opposite, *near_opposite])
    farthest = rank_frontends(frontends, [opposite], 3)[0][-1]
    assert farthest[1].location == site


def test_equidistant_frontends_break_ties_on_id():
    frontends = deployment(
        [GeoPoint(0.0, 10.0), GeoPoint(0.0, -10.0)], ids=["fe-z", "fe-y"]
    )
    point = GeoPoint(0.0, 0.0)
    row = rank_frontends(frontends, [point], 2)[0]
    assert row[0][0] == row[1][0]
    assert [fe.frontend_id for _, fe in row] == ["fe-y", "fe-z"]
    assert_matches_reference(frontends, [point])


def test_empty_point_list_and_empty_counts():
    frontends = deployment([GeoPoint(0.0, 0.0), GeoPoint(1.0, 1.0)])
    assert rank_frontends(frontends, [], 3) == []
    assert rank_frontends(frontends, [GeoPoint(5.0, 5.0)], 0) == [()]
    assert rank_frontends((), [GeoPoint(5.0, 5.0)], 2) == [()]


def test_network_ranking_skips_withdrawn_frontends(cdn_world):
    topology, deployment_, network = cdn_world
    point = GeoPoint(48.85, 2.35)
    victim = network.nearest_frontends(point, 1)[0]
    survivors = CdnNetwork(
        topology, deployment_, frozenset({victim.frontend_id})
    )
    live = survivors.frontends
    assert victim not in live
    for count in (1, 5, len(live) + 1):
        ranked = survivors.nearest_frontends(point, count)
        assert victim not in ranked
        assert list(ranked) == scalar_reference(live, point, count)
