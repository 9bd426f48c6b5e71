"""Plugging a new data-providing web service into WSMED.

WSMED is not hard-wired to the paper's four services: any provider that
publishes a WSDL can be imported, and its flattened view joins dependent
queries like any other.  This example adds a toy *ClimateService* whose
``GetClimate`` operation returns climate facts for a state, then runs a
dependent join GetAllStates -> GetClimate in parallel.
"""

from repro import QueryOptions, WSMED, build_registry
from repro.services.latency import EndpointProfile
from repro.services.registry import ServiceCosts
from repro.util.errors import ServiceFault

CLIMATE_WSDL = """\
<definitions name="ClimateService" targetNamespace="urn:example:climate">
  <types>
    <schema>
      <element name="GetClimate">
        <complexType><sequence>
          <element name="state" type="xsd:string"/>
        </sequence></complexType>
      </element>
      <element name="GetClimateResponse">
        <complexType><sequence>
          <element name="GetClimateResult">
            <complexType><sequence>
              <element name="ClimateFacts" maxOccurs="unbounded">
                <complexType><sequence>
                  <element name="season" type="xsd:string"/>
                  <element name="meanTempC" type="xsd:double"/>
                  <element name="rainyDays" type="xsd:int"/>
                </sequence></complexType>
              </element>
            </sequence></complexType>
          </element>
        </sequence></complexType>
      </element>
    </schema>
  </types>
  <portType name="ClimateSoap">
    <operation name="GetClimate">
      <input element="GetClimate"/>
      <output element="GetClimateResponse"/>
    </operation>
  </portType>
  <service name="ClimateService">
    <port name="ClimateSoap"/>
  </service>
</definitions>
"""

SEASONS = ("winter", "spring", "summer", "autumn")


class ClimateProvider:
    """A toy provider deriving climate facts from each state's latitude."""

    uri = "http://sim.example.com/climate.wsdl"

    def __init__(self, geodata) -> None:
        self.geodata = geodata

    def wsdl_text(self) -> str:
        return CLIMATE_WSDL

    def invoke(self, operation: str, arguments: list) -> dict:
        if operation != "GetClimate":
            raise ServiceFault(f"operation {operation!r} not implemented")
        (state_name,) = arguments
        try:
            state = self.geodata.state_named(state_name)
        except KeyError:
            raise ServiceFault(f"unknown state {state_name!r}") from None
        facts = [
            {
                "season": season,
                "meanTempC": round(28.0 - abs(state.lat) * 0.45 + index * 4.0, 1),
                "rainyDays": 20 + (index * 7 + int(abs(state.lon))) % 40,
            }
            for index, season in enumerate(SEASONS)
        ]
        return {"GetClimateResult": {"ClimateFacts": facts}}


def main() -> None:
    # Register the extra provider beside the standard four, with its own
    # latency/contention profile.
    registry = build_registry(
        "paper",
        extra_providers=(ClimateProvider,),  # factory: called with geodata
        extra_costs={
            "ClimateService": ServiceCosts(
                capacity=40,
                operations={
                    "GetClimate": EndpointProfile(
                        rtt=0.3,
                        setup=0.02,
                        service_time=0.5,
                        jitter=0.05,
                        overload_penalty=0.3,
                        overload_quadratic=0.02,
                        degrade_above=1,
                    )
                },
            )
        },
    )

    wsmed = WSMED(registry)
    generated = wsmed.import_all()
    print("imported OWFs:", ", ".join(generated))
    print()
    print(wsmed.owf_source("GetClimate"))
    print()

    sql = """
        SELECT gs.Name, gc.season, gc.meanTempC
        FROM   GetAllStates gs, GetClimate gc
        WHERE  gc.state = gs.State AND gc.season = 'summer'
          AND  gc.meanTempC > 12.0
    """
    central = wsmed.sql(sql, options=QueryOptions(mode="central"))
    parallel = wsmed.sql(sql, options=QueryOptions(mode="parallel", fanouts=[5]))
    adaptive = wsmed.sql(sql, options=QueryOptions(mode="adaptive"))

    print(f"{len(central)} states with mean summer temperature above 12 C")
    for row in central.as_dicts()[:5]:
        print(" ", row)
    print(f"  ... central {central.elapsed:.1f} s, "
          f"parallel {{5}} {parallel.elapsed:.1f} s, "
          f"adaptive {adaptive.elapsed:.1f} s")

    assert parallel.as_bag() == central.as_bag() == adaptive.as_bag()


if __name__ == "__main__":
    main()
