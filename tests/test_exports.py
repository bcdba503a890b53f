import kltrust


def test_every_exported_name_resolves():
    # a name deleted from a module but left in __all__ breaks `import *`
    missing = [name for name in kltrust.__all__ if not hasattr(kltrust, name)]
    assert missing == []
    assert len(set(kltrust.__all__)) == len(kltrust.__all__)
