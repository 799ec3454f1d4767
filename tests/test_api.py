import quasikernel


def test_public_names_resolve_once_and_star_import():
    names = quasikernel.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(quasikernel, n)] == []
    namespace = {}
    exec("from quasikernel import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)
