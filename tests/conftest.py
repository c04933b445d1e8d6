import logging

import pytest
from cryptography.hazmat.primitives import serialization

from ssitls.crypto import DeterministicRng, SignatureSuite
from ssitls.provision import Universe, build_universe

logging.getLogger("ssitls").setLevel(logging.ERROR)

ALL_SUITES = tuple(SignatureSuite)


@pytest.fixture(scope="session")
def universes() -> dict[SignatureSuite, Universe]:
    """One shared read-only universe per suite (in-memory ledger).

    Tests that mutate ledger state (rotation, deactivation) must build
    their own universe instead of touching these.
    """
    return {suite: build_universe(suite, rng=DeterministicRng(suite.value.encode()))
            for suite in ALL_SUITES}


@pytest.fixture(scope="session")
def ed_universe(universes) -> Universe:
    return universes[SignatureSuite.ED25519]


@pytest.fixture()
def fresh_universe() -> Universe:
    """Mutable throwaway universe (cheapest suite)."""
    return build_universe(SignatureSuite.ED25519)


@pytest.fixture()
def private_key_decodes(monkeypatch) -> list[bytes]:
    """The encoded key of every private-key decode in the process, whether
    through `crypto.load_secret_key` or straight from a file."""
    decodes = []
    for name in ("load_der_private_key", "load_pem_private_key"):
        original = getattr(serialization, name)

        def counting(data, *args, _original=original, **kwargs):
            decodes.append(data)
            return _original(data, *args, **kwargs)

        monkeypatch.setattr(serialization, name, counting)
    return decodes
