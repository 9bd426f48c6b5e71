"""WSMED: the Web Service MEDiator (the paper's system, Sec. III-IV).

:class:`~repro.wsmed.system.WSMED` is the public facade: import WSDL
documents (which generates operation wrapper functions and flattened SQL
views, and records metadata in the local catalog), then run SQL queries
with a central, manually-fanned-out parallel, or adaptive execution plan.
"""

from repro.wsmed.owf import OperationWrapper, generate_owf
from repro.wsmed.results import QueryResult, QueryStream
from repro.wsmed.system import WSMED, ExecutionMode
from repro.wsmed.views import render_view, view_columns

__all__ = [
    "OperationWrapper",
    "generate_owf",
    "QueryResult",
    "QueryStream",
    "WSMED",
    "ExecutionMode",
    "render_view",
    "view_columns",
]
