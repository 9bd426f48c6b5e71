"""Tests pinning the synthetic dataset to the paper's cardinalities."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.services.geodata import (
    GeoConfig,
    GeoDatabase,
    US_STATES,
    haversine_km,
)


@pytest.fixture(scope="module")
def geo() -> GeoDatabase:
    return GeoDatabase()


# -- dataset statistics the cardinality tests count ----------------------------


def total_places(geo: GeoDatabase) -> int:
    return len(geo._places)


def places_in_state(geo: GeoDatabase, state: str) -> list:
    return [place for place in geo._places if place.state == state]


def total_zipcodes(geo: GeoDatabase) -> int:
    return sum(len(geo.zipcodes_of(state.abbreviation)) for state in geo.all_states())


def expected_query1_level2_calls(geo: GeoDatabase, distance_km: float = 15.0) -> int:
    """How many GetPlaceList calls Query1 issues with this dataset."""
    return sum(
        len(geo.places_within("Atlanta", state, distance_km, "City"))
        for state in geo.atlanta_states
    )


def test_fifty_states(geo) -> None:
    assert len(geo.all_states()) == 50
    assert len({s.abbreviation for s in geo.all_states()}) == 50


def test_state_lookup_by_name_and_abbreviation(geo) -> None:
    assert geo.state_named("Colorado").abbreviation == "CO"
    assert geo.state_named("CO").name == "Colorado"
    with pytest.raises(KeyError):
        geo.state_named("Atlantis")


def test_total_zipcodes_matches_paper_scale(geo) -> None:
    # 50 states x 99 zips = 4950 GetPlacesInside calls in Query2 (paper:
    # "more than 5000 calls" including the other levels).
    assert total_zipcodes(geo) == 4950
    assert all(len(geo.zipcodes_of(abbr)) == 99 for _, abbr in US_STATES)


def test_usaf_academy_is_in_colorado_80840(geo) -> None:
    assert "80840" in geo.zipcodes_of("CO")
    hits = [
        place
        for place, _ in geo.places_inside("80840")
        if place.name == "USAF Academy"
    ]
    assert len(hits) == 1
    assert hits[0].state == "CO"


def test_usaf_zip_unique_across_states(geo) -> None:
    owners = [
        abbr for _, abbr in US_STATES if "80840" in geo.zipcodes_of(abbr)
    ]
    assert owners == ["CO"]


def test_atlanta_cluster_shape(geo) -> None:
    assert len(geo.atlanta_states) == 26
    for state in geo.atlanta_states:
        cluster = geo.places_within("Atlanta", state, 15.0, "City")
        assert len(cluster) == 10  # anchor + 9 neighbours
        names = [place.name for place, _ in cluster]
        assert "Atlanta" in names
        assert all(distance <= 15.0 for _, distance in cluster)


def test_query1_level2_call_count_is_260(geo) -> None:
    assert expected_query1_level2_calls(geo) == 260


def test_query1_result_row_count_is_360(geo) -> None:
    rows = 0
    for state in geo.atlanta_states:
        for place, _ in geo.places_within("Atlanta", state, 15.0, "City"):
            spec = f"{place.name}, {place.state}"
            rows += len(geo.place_list(spec, 100, True))
    assert rows == 360


def test_non_atlanta_state_has_empty_cluster(geo) -> None:
    non_atlanta = next(
        abbr for _, abbr in US_STATES if abbr not in geo.atlanta_states
    )
    assert geo.places_within("Atlanta", non_atlanta, 15.0, "City") == []


def test_place_list_without_state_matches_all_states(geo) -> None:
    everywhere = geo.place_list("Atlanta", 100, True)
    assert len({place.state for place in everywhere}) == 26


def test_place_list_respects_max_items(geo) -> None:
    assert len(geo.place_list("Atlanta", 5, True)) == 5


def test_places_inside_unknown_zip_is_empty(geo) -> None:
    assert geo.places_inside("00000") == []


def test_places_inside_returns_distances_from_origin(geo) -> None:
    some_zip = geo.zipcodes_of("GA")[10]
    results = geo.places_inside(some_zip)
    assert results
    assert results[0][1] == 0.0  # the origin place itself


def test_dataset_is_deterministic() -> None:
    first, second = GeoDatabase(), GeoDatabase()
    assert first.atlanta_states == second.atlanta_states
    assert total_places(first) == total_places(second)
    assert [p.name for p in places_in_state(first, "GA")] == [
        p.name for p in places_in_state(second, "GA")
    ]


def test_different_seed_changes_layout() -> None:
    default = GeoDatabase()
    other = GeoDatabase(GeoConfig(seed=7))
    assert default.atlanta_states != other.atlanta_states


def test_config_scales_cardinalities() -> None:
    small = GeoDatabase(
        GeoConfig(
            atlanta_state_count=4,
            neighbors_per_atlanta=2,
            locale_twin_total=5,
            zipcodes_per_state=10,
        )
    )
    assert total_zipcodes(small) == 500
    assert expected_query1_level2_calls(small) == 12  # 4 x (1 + 2)


def test_haversine_known_distance() -> None:
    # One degree of latitude is ~111 km.
    assert haversine_km(40.0, -100.0, 41.0, -100.0) == pytest.approx(111.2, abs=0.5)
    assert haversine_km(40.0, -100.0, 40.0, -100.0) == 0.0


coords = st.tuples(
    st.floats(min_value=-80, max_value=80),
    st.floats(min_value=-179, max_value=179),
)


@given(a=coords, b=coords)
@settings(max_examples=60)
def test_haversine_is_symmetric_and_nonnegative(a, b) -> None:
    forward = haversine_km(a[0], a[1], b[0], b[1])
    backward = haversine_km(b[0], b[1], a[0], a[1])
    assert forward == pytest.approx(backward)
    assert forward >= 0.0


# -- the indexed lookups against the scans they replaced ---------------------------


def scan_place_list(geo, specification, max_items, image_presence):
    """``place_list`` as a scan over every place: the reference."""
    name, _, state_part = specification.partition(",")
    name = name.strip()
    state_part = state_part.strip()
    matches = [
        place
        for place in geo._places
        if place.name == name and (not state_part or place.state == state_part)
    ]
    matches.sort(key=lambda place: (place.state, place.place_type))
    return matches[: max_items if max_items > 0 else len(matches)]


def scan_places_within(geo, place_prefix, state, distance_km, place_type):
    """``places_within`` computing every candidate/anchor arc: the reference."""
    in_state = geo._places_by_state.get(state, [])
    anchors = [
        p for p in in_state
        if p.name.startswith(place_prefix) and p.place_type == "City"
    ]
    results = {}
    for candidate in in_state:
        if candidate.place_type != place_type:
            continue
        for anchor in anchors:
            distance = haversine_km(
                anchor.lat, anchor.lon, candidate.lat, candidate.lon
            )
            if distance <= distance_km:
                key = (candidate.name, candidate.place_type)
                best = results.get(key)
                if best is None or distance < best[1]:
                    results[key] = (candidate, distance)
                break
    return sorted(results.values(), key=lambda pair: (pair[1], pair[0].name))


def assert_identical(found, expected) -> None:
    """Same objects in the same order, distances equal to the last bit."""
    assert len(found) == len(expected)
    for got, want in zip(found, expected):
        if isinstance(want, tuple):
            assert got[0] is want[0] and got[1] == want[1]
        else:
            assert got is want


@pytest.mark.parametrize("config", [GeoConfig(), GeoConfig(seed=7)], ids=["seed2009", "seed7"])
def test_indexed_lookups_return_what_the_scans_return(config) -> None:
    """Every argument list Query1 issues (Query2's three operations never
    reach these two lookups), then the corners."""
    geo = GeoDatabase(config)
    specifications = ["Atlanta", "Springfield", "Nowhere", "Nowhere, GA", " Atlanta ,  GA ", ""]
    for _, abbreviation in US_STATES:
        within = [("Atlanta", abbreviation, 15.0, "City")]
        within.append(("Atlanta", abbreviation, 15.0, "Locale"))
        within.append(("Atlanta Heights", abbreviation, 3.0, "City"))  # many anchors
        within.append(("", abbreviation, 60.0, "City"))  # every city an anchor
        within.append(("Zzz", abbreviation, 15.0, "City"))  # no anchor at all
        for arguments in within:
            assert_identical(
                geo.places_within(*arguments), scan_places_within(geo, *arguments)
            )
        for place, _ in geo.places_within("Atlanta", abbreviation, 15.0, "City"):
            specifications.append(f"{place.name}, {place.state}")
    assert len(specifications) == 6 + 260
    for specification in specifications:
        for max_items in (100, 0, 1, -3):
            assert_identical(
                geo.place_list(specification, max_items, True),
                scan_place_list(geo, specification, max_items, True),
            )
    assert geo.places_within("Atlanta", "ZZ", 15.0, "City") == []
    assert len({p.state for p in geo.place_list("Atlanta", 0, False)}) == 26
    assert geo.place_list("Nowhere", 100, True) == []


def test_latitude_bound_never_drops_a_pair_in_range(geo) -> None:
    """Sweep the radius across each candidate's exact distance, one ulp
    either side: the cheap reject must agree with the arc on every pair —
    including the pairs on one meridian, where the bound is tight."""
    for state in geo.atlanta_states[:6]:
        everything = scan_places_within(geo, "Atlanta", state, 500.0, "City")
        assert len(everything) > 100
        for _, distance in everything[::7] + everything[:12]:
            for radius in (math.nextafter(distance, 0.0), distance, math.nextafter(distance, math.inf)):
                arguments = ("Atlanta", state, radius, "City")
                assert_identical(
                    geo.places_within(*arguments), scan_places_within(geo, *arguments)
                )
    for latitude in (0.0, 33.7, 64.2, -89.0):
        for step in (1e-9, 0.004, 0.135, 1.0, 27.5, 90.0):
            other = latitude + step
            arc = haversine_km(latitude, -84.4, other, -84.4)
            assert arc * (1.0 + 1e-9) >= (other - latitude) * 6371.0 * math.pi / 180.0
