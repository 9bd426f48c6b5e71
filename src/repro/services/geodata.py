"""Synthetic geographic database backing the simulated web services.

The dataset is generated deterministically from a seed and is *shaped* to
reproduce the paper's workload cardinalities:

* 50 US states (``GetAllStates`` returns one row per state);
* 26 states contain a city named ``Atlanta`` with exactly 9 neighbouring
  cities within 15 km, so Query1 issues 26 x 10 = 260 ``GetPlaceList``
  calls (paper: "more than 300 web service calls" counting all levels) and
  returns 360 rows (some places also exist as a ``Locale`` entity);
* every state has exactly 99 zip codes, so Query2 issues
  1 + 50 + 4950 calls (paper: "more than 5000");
* the place ``USAF Academy`` lives in Colorado zip ``80840``, the answer
  the paper's Query2 returns.

All counts are configurable through :class:`GeoConfig`; the defaults encode
the paper's scenario and are pinned by tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.util.rng import derive_rng

# (name, abbreviation) for the 50 US states.
US_STATES: list[tuple[str, str]] = [
    ("Alabama", "AL"), ("Alaska", "AK"), ("Arizona", "AZ"), ("Arkansas", "AR"),
    ("California", "CA"), ("Colorado", "CO"), ("Connecticut", "CT"),
    ("Delaware", "DE"), ("Florida", "FL"), ("Georgia", "GA"), ("Hawaii", "HI"),
    ("Idaho", "ID"), ("Illinois", "IL"), ("Indiana", "IN"), ("Iowa", "IA"),
    ("Kansas", "KS"), ("Kentucky", "KY"), ("Louisiana", "LA"), ("Maine", "ME"),
    ("Maryland", "MD"), ("Massachusetts", "MA"), ("Michigan", "MI"),
    ("Minnesota", "MN"), ("Mississippi", "MS"), ("Missouri", "MO"),
    ("Montana", "MT"), ("Nebraska", "NE"), ("Nevada", "NV"),
    ("New Hampshire", "NH"), ("New Jersey", "NJ"), ("New Mexico", "NM"),
    ("New York", "NY"), ("North Carolina", "NC"), ("North Dakota", "ND"),
    ("Ohio", "OH"), ("Oklahoma", "OK"), ("Oregon", "OR"),
    ("Pennsylvania", "PA"), ("Rhode Island", "RI"), ("South Carolina", "SC"),
    ("South Dakota", "SD"), ("Tennessee", "TN"), ("Texas", "TX"),
    ("Utah", "UT"), ("Vermont", "VT"), ("Virginia", "VA"),
    ("Washington", "WA"), ("West Virginia", "WV"), ("Wisconsin", "WI"),
    ("Wyoming", "WY"),
]

_EARTH_RADIUS_KM = 6371.0
_KM_PER_DEGREE_OF_LATITUDE = _EARTH_RADIUS_KM * math.pi / 180.0

_TOWN_STEMS = [
    "Springfield", "Fairview", "Riverside", "Franklin", "Greenville",
    "Bristol", "Clinton", "Salem", "Georgetown", "Madison", "Arlington",
    "Ashland", "Dover", "Hudson", "Kingston", "Milton", "Newport",
    "Oxford", "Burlington", "Manchester", "Milford", "Auburn", "Clayton",
    "Dayton", "Lexington", "Monroe", "Oakland", "Troy", "Winchester",
    "Jackson",
]


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in kilometres between two lat/lon points."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlambda = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlambda / 2) ** 2
    return 2 * _EARTH_RADIUS_KM * math.asin(math.sqrt(a))


@dataclass(frozen=True)
class State:
    """One US state with a synthetic geographic centre."""

    name: str
    abbreviation: str
    lat: float
    lon: float


@dataclass(frozen=True)
class Place:
    """A named place: a City or a Locale entity."""

    name: str
    state: str  # state abbreviation
    place_type: str  # 'City' or 'Locale'
    lat: float
    lon: float
    population: int
    zip_code: str
    has_map: bool = True


@dataclass(frozen=True)
class GeoConfig:
    """Knobs shaping the synthetic dataset (defaults = paper scenario)."""

    seed: int = 2009
    atlanta_state_count: int = 26
    neighbors_per_atlanta: int = 9
    locale_twin_total: int = 100
    zipcodes_per_state: int = 99
    usaf_state: str = "CO"
    usaf_zip: str = "80840"
    usaf_place: str = "USAF Academy"


class GeoDatabase:
    """Deterministic synthetic USA plus the query helpers providers need."""

    def __init__(self, config: GeoConfig | None = None) -> None:
        self.config = config or GeoConfig()
        self._states: list[State] = []
        self._places: list[Place] = []
        self._zips_by_state: dict[str, list[str]] = {}
        self._places_by_zip: dict[str, list[Place]] = {}
        self._places_by_state: dict[str, list[Place]] = {}
        self._places_by_name: dict[str, list[Place]] = {}
        self.atlanta_states: list[str] = []
        self._build()

    # -- construction ---------------------------------------------------------

    def _build(self) -> None:
        config = self.config
        rng = derive_rng(config.seed, "geodata")
        for index, (name, abbreviation) in enumerate(US_STATES):
            lat = 30.0 + (index % 10) * 2.0 + rng.uniform(-0.5, 0.5)
            lon = -70.0 - (index // 10) * 10.0 + rng.uniform(-2.0, 2.0)
            self._states.append(State(name, abbreviation, lat, lon))

        self._allocate_zipcodes()
        self._populate_places(rng)
        self._place_atlantas(rng)
        self._place_usaf(rng)

        for place in self._places:
            self._places_by_zip.setdefault(place.zip_code, []).append(place)
            self._places_by_state.setdefault(place.state, []).append(place)
            self._places_by_name.setdefault(place.name, []).append(place)

    def _allocate_zipcodes(self) -> None:
        per_state = self.config.zipcodes_per_state
        for index, state in enumerate(self._states):
            if state.abbreviation == self.config.usaf_state:
                start = 80800  # block containing the USAF Academy zip 80840
            else:
                start = 10000 + index * 200
            codes = [f"{start + offset:05d}" for offset in range(per_state)]
            self._zips_by_state[state.abbreviation] = codes

    def _populate_places(self, rng) -> None:
        """One ordinary City per zip code.

        Ordinary towns live on a ring 0.4-1.5 degrees (>= ~40 km) from the
        state centre.  Atlanta clusters sit within 12 km of the centre, so
        no ordinary town ever falls inside a cluster's 15 km radius — which
        keeps Query1's call count exactly at the configured value.
        """
        for state in self._states:
            for zip_index, zip_code in enumerate(self._zips_by_state[state.abbreviation]):
                stem = _TOWN_STEMS[zip_index % len(_TOWN_STEMS)]
                suffix = zip_index // len(_TOWN_STEMS)
                name = stem if suffix == 0 else f"{stem} {suffix + 1}"
                angle = rng.uniform(0.0, 2 * math.pi)
                ring = rng.uniform(0.4, 1.5)
                self._places.append(
                    Place(
                        name=name,
                        state=state.abbreviation,
                        place_type="City",
                        lat=state.lat + ring * math.sin(angle),
                        lon=state.lon + ring * math.cos(angle),
                        population=rng.randint(500, 80000),
                        zip_code=zip_code,
                    )
                )

    def _place_atlantas(self, rng) -> None:
        """Atlanta clusters: anchor city + 9 neighbours within 15 km each.

        ``locale_twin_total`` of the cluster members additionally exist as a
        ``Locale`` entity with the same name, which is what brings Query1's
        result from 260 rows up to the paper's 360.
        """
        config = self.config
        chosen = sorted(
            rng.sample(range(len(self._states)), config.atlanta_state_count)
        )
        self.atlanta_states = [self._states[i].abbreviation for i in chosen]
        twins_left = config.locale_twin_total
        for state_rank, state_index in enumerate(chosen):
            state = self._states[state_index]
            zip_codes = self._zips_by_state[state.abbreviation]
            anchor = Place(
                name="Atlanta",
                state=state.abbreviation,
                place_type="City",
                lat=state.lat,
                lon=state.lon,
                population=rng.randint(20000, 500000),
                zip_code=zip_codes[0],
            )
            cluster = [anchor]
            for neighbor_index in range(config.neighbors_per_atlanta):
                # Offsets well inside 15 km: < 0.09 degrees of latitude.
                angle = rng.uniform(0.0, 2 * math.pi)
                radius_km = rng.uniform(2.0, 12.0)
                dlat = (radius_km / 111.0) * math.sin(angle)
                dlon = (radius_km / 111.0) * math.cos(angle) / max(
                    0.2, math.cos(math.radians(anchor.lat))
                )
                cluster.append(
                    Place(
                        name=f"Atlanta Heights {neighbor_index + 1}",
                        state=state.abbreviation,
                        place_type="City",
                        lat=anchor.lat + dlat,
                        lon=anchor.lon + dlon,
                        population=rng.randint(1000, 50000),
                        zip_code=zip_codes[(neighbor_index + 1) % len(zip_codes)],
                    )
                )
            self._places.extend(cluster)
            # Deterministic locale twins: earlier states get one more so the
            # configured total is met exactly.
            remaining_states = len(chosen) - state_rank
            quota = -(-twins_left // remaining_states)  # ceil division
            for place in cluster[:quota]:
                if twins_left == 0:
                    break
                self._places.append(
                    Place(
                        name=place.name,
                        state=place.state,
                        place_type="Locale",
                        lat=place.lat,
                        lon=place.lon,
                        population=0,
                        zip_code=place.zip_code,
                        has_map=False,
                    )
                )
                twins_left -= 1

    def _place_usaf(self, rng) -> None:
        config = self.config
        state = next(
            s for s in self._states if s.abbreviation == config.usaf_state
        )
        # Fixed offset > 15 km from the state centre so the academy never
        # joins an Atlanta cluster even when Colorado has one.
        self._places.append(
            Place(
                name=config.usaf_place,
                state=config.usaf_state,
                place_type="City",
                lat=state.lat + 0.6,
                lon=state.lon + 0.6,
                population=6500,
                zip_code=config.usaf_zip,
            )
        )

    # -- query helpers used by the providers -----------------------------------

    def all_states(self) -> list[State]:
        return list(self._states)

    def state_named(self, name: str) -> State:
        for state in self._states:
            if state.name == name or state.abbreviation == name:
                return state
        raise KeyError(f"unknown state {name!r}")

    def places_within(
        self, place_prefix: str, state: str, distance_km: float, place_type: str
    ) -> list[tuple[Place, float]]:
        """Places of ``place_type`` within ``distance_km`` of any place in
        ``state`` whose name starts with ``place_prefix``.

        Returns (place, distance) pairs, nearest first, mirroring
        ``GetPlacesWithin``; the distance is to the first anchor in range,
        in dataset order, which need not be the nearest one.
        """
        in_state = self._places_by_state.get(state, [])
        anchors = [
            p for p in in_state
            if p.name.startswith(place_prefix) and p.place_type == "City"
        ]
        # Two points are never closer than their parallels: latitudes further
        # apart than the radius (plus a slack far above float rounding) rule a
        # pair out without computing the arc.
        reach = distance_km * (1.0 + 1e-9) / _KM_PER_DEGREE_OF_LATITUDE
        results: dict[tuple[str, str], tuple[Place, float]] = {}
        for candidate in in_state:
            if candidate.place_type != place_type:
                continue
            for anchor in anchors:
                if abs(anchor.lat - candidate.lat) > reach:
                    continue
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

    def place_list(
        self, specification: str, max_items: int, image_presence: bool
    ) -> list[Place]:
        """Places matching a ``'Name, ST'`` specification (``GetPlaceList``).

        A bare name without a state part matches across all states.  When
        ``image_presence`` is set, places without an associated map are
        still returned with ``has_map`` False — like TerraService, the flag
        requests the attribute rather than filtering (the paper's Query1
        passes 'true' and still sees 360 rows).
        """
        name, _, state_part = specification.partition(",")
        name = name.strip()
        state_part = state_part.strip()
        matches = [
            place
            for place in self._places_by_name.get(name, ())
            if not state_part or place.state == state_part
        ]
        matches.sort(key=lambda place: (place.state, place.place_type))
        return matches[: max_items if max_items > 0 else len(matches)]

    def zipcodes_of(self, state_name: str) -> list[str]:
        state = self.state_named(state_name)
        return list(self._zips_by_state[state.abbreviation])

    def zip_origin(self, zip_code: str) -> tuple[float, float] | None:
        places = self._places_by_zip.get(zip_code)
        if not places:
            return None
        return places[0].lat, places[0].lon

    def places_inside(self, zip_code: str) -> list[tuple[Place, float]]:
        """Places located in a zip-code area plus their distance from the
        area origin (``GetPlacesInside``)."""
        places = self._places_by_zip.get(zip_code, [])
        origin = self.zip_origin(zip_code)
        if origin is None:
            return []
        return [
            (place, haversine_km(origin[0], origin[1], place.lat, place.lon))
            for place in places
        ]
