"""WSMED reproduction: adaptive parallelization of queries over dependent
web service calls (Sabesan & Risch, ICDE 2009).

Quick start::

    from repro import WSMED, QUERY1_SQL, QueryOptions

    wsmed = WSMED(profile="paper")
    wsmed.import_all()
    central = wsmed.sql(QUERY1_SQL)
    best = wsmed.sql(
        QUERY1_SQL, options=QueryOptions(mode="parallel", fanouts=[5, 4])
    )
    adaptive = wsmed.sql(QUERY1_SQL, options=QueryOptions(mode="adaptive"))
    print(central.elapsed, best.elapsed, adaptive.elapsed)

The package layers (see DESIGN.md for the full inventory):

* :mod:`repro.runtime` — virtual-time and real-time execution kernels,
* :mod:`repro.services` — the simulated web-service substrate,
* :mod:`repro.fdb` — the functional main-memory DBMS substrate,
* :mod:`repro.sql`, :mod:`repro.calculus`, :mod:`repro.algebra` — the
  query compiler (SQL -> calculus -> central plan),
* :mod:`repro.parallel` — ``FF_APPLYP`` / ``AFF_APPLYP`` and process trees,
* :mod:`repro.wsmed` — the mediator facade tying it all together,
* :mod:`repro.render` — every report, view, plan and trace text.
"""

from repro.algebra.optimizer import (
    OptimizerReport,
    create_cost_based_plan,
)
from repro.algebra.plan import AdaptationParams
from repro.cache import CacheConfig, CacheStats
from repro.calculus.rewrite import AppliedRewrite, rewrite_unfittable
from repro.engine import (
    AdmissionConfig,
    AdmissionRejected,
    EngineClosed,
    EngineStats,
    QueryEngine,
)
from repro.obs import (
    CriticalPathReport,
    SpanStore,
    TraceRecorder,
    analyze_critical_path,
)
from repro.fdb.functions import AccessPath
from repro.parallel.costs import ProcessCosts
from repro.obs.run import FaultStats
from repro.parallel.faults import FaultInjection
from repro.runtime.realtime import AsyncioKernel
from repro.runtime.simulated import SimKernel
from repro.services.geodata import GeoConfig, GeoDatabase
from repro.services.registry import ServiceRegistry, build_registry
from repro.util.errors import ReproError, SqlError
from repro.wsmed.options import QueryOptions
from repro.wsmed.results import QueryResult, QueryStream
from repro.wsmed.system import WSMED, ExecutionMode

__version__ = "1.0.0"

# The paper's two example queries (Figs 1 and 3), ready to run.
QUERY1_SQL = """
Select gl.placename, gl.state
From   GetAllStates gs, GetPlacesWithin gp, GetPlaceList gl
Where  gs.State = gp.state and gp.distance = 15.0
  and  gp.placeTypeToFind = 'City' and gp.place = 'Atlanta'
  and  gl.placeName = gp.ToCity + ', ' + gp.ToState
  and  gl.MaxItems = 100 and gl.imagePresence = 'true'
"""

QUERY2_SQL = """
Select gp.ToState, gp.zip
From   GetAllStates gs, GetInfoByState gi, getzipcode gc, GetPlacesInside gp
Where  gs.State = gi.USState and
       gi.GetInfoByStateResult = gc.zipstr and
       gc.zipcode = gp.zip and
       gp.ToPlace = 'USAF Academy'
"""


def __getattr__(name: str):
    # Lazy: the multi-process kernel and the HTTP front end sit above the
    # operator layers that import this package during initialization.
    if name == "ProcessKernel":
        from repro.runtime.multiprocess import ProcessKernel

        return ProcessKernel
    if name == "QueryServer":
        from repro.serve import QueryServer

        return QueryServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AdaptationParams",
    "CacheConfig",
    "CacheStats",
    "ProcessCosts",
    "FaultInjection",
    "FaultStats",
    "AsyncioKernel",
    "ProcessKernel",
    "SimKernel",
    "QueryServer",
    "GeoConfig",
    "GeoDatabase",
    "ServiceRegistry",
    "build_registry",
    "ReproError",
    "SqlError",
    "QueryOptions",
    "QueryResult",
    "QueryStream",
    "QueryEngine",
    "AdmissionConfig",
    "AdmissionRejected",
    "EngineClosed",
    "EngineStats",
    "TraceRecorder",
    "SpanStore",
    "CriticalPathReport",
    "analyze_critical_path",
    "AccessPath",
    "AppliedRewrite",
    "OptimizerReport",
    "create_cost_based_plan",
    "rewrite_unfittable",
    "WSMED",
    "ExecutionMode",
    "QUERY1_SQL",
    "QUERY2_SQL",
    "__version__",
]
