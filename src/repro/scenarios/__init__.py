"""Fleet-scale chaos scenario engine.

A *campaign* is a named, parameterized, fully deterministic drill
written as one row of data: a world (realm topology, population,
daemons, workstations), a station load in one of three shapes (paced,
burst, session), a fault schedule and SLOs.  One engine
(:mod:`repro.scenarios.engine`) builds, loads, faults and scores any
row; it is the repository's one load driver.  The library
(:mod:`repro.scenarios.library`) ships eleven rows, the drills the
paper's deployment story implies: the morning login storm, a slave
outage at peak, the master assassination the supervisor must survive, a
rolling KDC upgrade, a clock-skew epidemic, lossy-WAN degradation,
request-plane saturation, an NFS fleet mount storm, a shard rebalance
under load, Section 9's busy hour and an open-loop login burst.

Run them from code (:func:`repro.scenarios.run`) or from the command
line (``python -m repro.scenarios``).
"""

from repro.scenarios.engine import (
    Campaign,
    CampaignResult,
    SloCheck,
    SloSpec,
    StationRecord,
)
from repro.scenarios.library import CAMPAIGNS, get, names, run

__all__ = [
    "CAMPAIGNS",
    "Campaign",
    "CampaignResult",
    "SloCheck",
    "SloSpec",
    "StationRecord",
    "get",
    "names",
    "run",
]
