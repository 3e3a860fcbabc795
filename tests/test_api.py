import mfgsolver


def test_every_exported_name_resolves():
    missing = [name for name in mfgsolver.__all__ if not hasattr(mfgsolver, name)]
    assert missing == []
    assert len(set(mfgsolver.__all__)) == len(mfgsolver.__all__)
