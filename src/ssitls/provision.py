"""Build complete endpoint identities for demos, benchmarks and tests:
ledger-registered DIDs, issued credentials, X.509 chains and trust stores."""

from __future__ import annotations

import datetime
from dataclasses import dataclass, replace

from .certs import X509Identity, make_chain
from .crypto import Rng, SYSTEM_RNG, SignatureSuite, generate_keypairs
from .handshake import EndpointConfig, Mode, SsiIdentity
from .identity import (
    Did,
    KeyPair,
    TrustStore,
    VerifiableCredential,
    did_register,
    vc_issue,
)
from .ledger import LedgerStore


@dataclass
class Universe:
    """Everything two endpoints need to run every flow under one suite."""

    suite: SignatureSuite
    store: LedgerStore
    ledger: object  # resolver interface: get/put
    issuer_did: Did
    issuer_keys: KeyPair
    server_ssi: SsiIdentity
    client_ssi: SsiIdentity
    server_x509: X509Identity
    client_x509: X509Identity
    x509_roots: tuple[bytes, ...]
    trust_store: TrustStore

    def client_config(self, mode: Mode, **overrides) -> EndpointConfig:
        config = EndpointConfig(
            preferred_mode=mode,
            x509_identity=self.client_x509,
            ssi_identity=self.client_ssi,
            supported_methods=(self.client_ssi.did.method.code,),
            trust_store=self.trust_store,
            x509_roots=self.x509_roots,
            ledger=self.ledger,
        )
        return replace(config, **overrides)

    def server_config(self, **overrides) -> EndpointConfig:
        config = EndpointConfig(
            x509_identity=self.server_x509,
            ssi_identity=self.server_ssi,
            supported_methods=(self.server_ssi.did.method.code,),
            trust_store=self.trust_store,
            x509_roots=self.x509_roots,
            ledger=self.ledger,
        )
        return replace(config, **overrides)


def issue_credential(issuer_keys: KeyPair, issuer_did: Did, subject: Did,
                     claims: dict[str, str], rng: Rng = SYSTEM_RNG) -> VerifiableCredential:
    now = datetime.datetime.now(datetime.timezone.utc)
    return vc_issue(issuer_keys, issuer_did, subject, claims,
                    now - datetime.timedelta(minutes=5),
                    now + datetime.timedelta(days=30),
                    extra_types=("IoTCredential",), rng=rng)


def build_universe(suite: SignatureSuite, store: LedgerStore | None = None,
                   ledger: object | None = None, rng: Rng = SYSTEM_RNG) -> Universe:
    """Provision issuer, server and client identities under one suite. The
    three DID keys are one `generate_keypairs` batch, registered in that
    order, so a seeded universe has the DIDs of three `did_create` calls.

    `ledger` is the resolver/writer interface the endpoints use; it defaults
    to direct in-memory access to `store`.
    """
    store = store if store is not None else LedgerStore()
    ledger = ledger if ledger is not None else store

    issuer_keys, server_keys, client_keys = generate_keypairs(suite, 3, rng)
    issuer_did = did_register(ledger, issuer_keys)
    server_did = did_register(ledger, server_keys)
    client_did = did_register(ledger, client_keys)

    server_vc = issue_credential(issuer_keys, issuer_did, server_did,
                                 {"role": "server", "device": "unit-a"}, rng=rng)
    client_vc = issue_credential(issuer_keys, issuer_did, client_did,
                                 {"role": "client", "device": "unit-b"}, rng=rng)

    server_x509, server_root = make_chain(suite, "server.example", rng)
    client_x509, client_root = make_chain(suite, "client.example", rng)

    trust = TrustStore()
    trust.add_issuer(issuer_did, issuer_keys.suite, issuer_keys.public_key)
    trust.trust_did(server_did)
    trust.trust_did(client_did)

    return Universe(
        suite=suite,
        store=store,
        ledger=ledger,
        issuer_did=issuer_did,
        issuer_keys=issuer_keys,
        server_ssi=SsiIdentity(server_did, server_keys, server_vc),
        client_ssi=SsiIdentity(client_did, client_keys, client_vc),
        server_x509=server_x509,
        client_x509=client_x509,
        x509_roots=(server_root, client_root),
        trust_store=trust,
    )
