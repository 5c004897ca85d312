"""The package's public surface."""

import blochlab as bl


def test_every_exported_name_resolves():
    assert len(set(bl.__all__)) == len(bl.__all__)
    for name in bl.__all__:
        assert getattr(bl, name, None) is not None, name
