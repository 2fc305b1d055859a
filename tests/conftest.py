from __future__ import annotations

import gc

import pytest

from exosim import fixture_path, load_document


@pytest.fixture(scope="session")
def ejemplo5_path():
    return fixture_path("ejemplo5.exo")


@pytest.fixture(scope="session")
def reference_path():
    return fixture_path("reference.exo")


@pytest.fixture()
def ejemplo5_doc(ejemplo5_path):
    return load_document(ejemplo5_path)


@pytest.fixture()
def reference_doc(reference_path):
    return load_document(reference_path)


@pytest.fixture()
def ejemplo_pair(ejemplo5_doc):
    """(agent, universe) for the worked five-state example."""
    return ejemplo5_doc.build_agent("ejemplo")


@pytest.fixture()
def pathfinder_pair(reference_doc):
    return reference_doc.build_agent("pathfinder")


@pytest.fixture()
def keep_collector_state():
    """Gives the cyclic collector back its state after the test."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()
