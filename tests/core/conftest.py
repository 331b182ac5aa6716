"""Shared fixtures: a small simulated Athena realm."""

import pytest

from repro.core import KerberosClient, KerberosServer, Principal, StaticLocator
from repro.crypto import KeyGenerator
from repro.database.admin_tools import kdb_init, register_service
from repro.netsim import Network

REALM = "ATHENA.MIT.EDU"


@pytest.fixture
def keygen():
    return KeyGenerator(seed=b"core-tests")


@pytest.fixture
def net():
    return Network()


@pytest.fixture
def db(keygen):
    db = kdb_init(REALM, "master-pw", keygen)
    db.add_principal(Principal("jis", "", REALM), password="jis-pw")
    db.add_principal(Principal("bcn", "", REALM), password="bcn-pw")
    return db


@pytest.fixture
def kdc_host(net):
    return net.add_host("kerberos", address="18.72.0.1")


@pytest.fixture
def kdc(db, kdc_host, keygen):
    return KerberosServer(db, keygen.fork(b"kdc")).attach(kdc_host)


@pytest.fixture
def ws(net):
    return net.add_host("ws1", address="18.72.0.100")


@pytest.fixture
def server_host(net):
    return net.add_host("priam", address="18.72.0.50")


@pytest.fixture
def client(ws, kdc, kdc_host):
    return KerberosClient(ws, REALM, StaticLocator([kdc_host.address]))


@pytest.fixture
def rlogin(db, keygen):
    """The rlogin.priam service plus its private key."""
    service = Principal("rlogin", "priam", REALM)
    key = register_service(db, service, keygen)
    return service, key
