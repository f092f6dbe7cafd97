import phaseret


def test_star_import_binds_every_export_once():
    assert len(phaseret.__all__) == len(set(phaseret.__all__))
    namespace = {}
    exec("from phaseret import *", namespace)
    assert set(phaseret.__all__) <= namespace.keys()
