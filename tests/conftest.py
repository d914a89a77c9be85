import pytest

from painleve_cubics import catalog


@pytest.fixture(autouse=True)
def pristine_catalogs():
    """Every test starts from the built-in catalogs."""
    catalog.set_catalog_root(None)
    yield
    catalog.set_catalog_root(None)
