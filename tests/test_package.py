import beambvp


def test_every_exported_name_resolves_once():
    names = beambvp.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(beambvp, name)] == []


def test_deleted_names_are_not_exported():
    # the violations and the certificate are fields of Problem, derived by
    # make_problem; the functions that derived them afterwards are gone
    for name in ("validate_hypotheses", "ValidationReport", "certificate"):
        assert name not in beambvp.__all__ and not hasattr(beambvp, name), name
