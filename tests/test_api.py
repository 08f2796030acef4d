import cyclecover


def test_all_names_resolve_once():
    names = cyclecover.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(cyclecover, name)]
    assert missing == []
