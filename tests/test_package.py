import fracemden


def test_every_public_name_resolves():
    assert [n for n in fracemden.__all__ if not hasattr(fracemden, n)] == []


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from fracemden import *", namespace)
    assert set(fracemden.__all__) <= namespace.keys()
