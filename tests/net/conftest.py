"""Shared fixtures for the network lane: one live service per session."""

from __future__ import annotations

import http.client

import pytest

from repro.datasets import load_dataset
from repro.metrics import MetricsRegistry
from repro.net import ServerThread, SourceService
from repro.server import SimulatedWebDatabase


@pytest.fixture(scope="session")
def imdb_table():
    return load_dataset("imdb", 800, seed=1)


@pytest.fixture()
def service(imdb_table, books):
    """A fresh service per test (sources carry per-crawl round state)."""
    return SourceService(
        {
            "imdb": SimulatedWebDatabase(imdb_table, page_size=10),
            "books": SimulatedWebDatabase(books, page_size=2),
        },
        registry=MetricsRegistry(),
    )


@pytest.fixture()
def served(service):
    """(url, service) with a live asyncio server on a background thread."""
    with ServerThread(service) as url:
        yield url, service


def open_keep_alive_connections(url, count):
    """``count`` connections, each left idle after one answered request."""
    host = url.split("//")[1]
    connections = []
    for _ in range(count):
        connection = http.client.HTTPConnection(host, timeout=10)
        connection.request("GET", "/healthz")
        response = connection.getresponse()
        assert response.status == 200
        response.read()
        connections.append(connection)
    return connections
