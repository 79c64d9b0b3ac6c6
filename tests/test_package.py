import plumbcap


def test_every_exported_name_exists():
    # A stale __all__ entry breaks only `from plumbcap import *`.
    missing = [name for name in plumbcap.__all__ if not hasattr(plumbcap, name)]
    assert plumbcap.__all__ and not missing, missing
    assert len(set(plumbcap.__all__)) == len(plumbcap.__all__)


def test_removed_helpers_stay_out_of_the_package():
    for name in ("DualString", "gram_to_json", "is_negative_definite"):
        assert name not in plumbcap.__all__
        assert not hasattr(plumbcap, name)
