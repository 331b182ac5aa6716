"""One-call bootstrap of a complete Kerberos realm.

Ties every Figure 1 component together the way the Athena administrator
of Section 6.3 would: initialize the database, register essential
principals, start the authentication and administration servers, stand
up slaves with propagation, extract srvtabs for services, and hand out
workstations with client libraries.
"""

from repro.realm.bootstrap import Realm, RealmTopology, Workstation, link
from repro.realm.nfs_fleet import FleetServer, NfsFleet, NfsUserSpec
from repro.realm.supervisor import RealmSupervisor

__all__ = [
    "FleetServer",
    "NfsFleet",
    "NfsUserSpec",
    "Realm",
    "RealmSupervisor",
    "RealmTopology",
    "Workstation",
    "link",
]
