import pickle

import pytest

from kreinalg import errors

KREIN_ERRORS = [cls for cls in vars(errors).values()
                if isinstance(cls, type) and issubclass(cls, errors.KreinError)]


def test_taxonomy_is_collected():
    assert errors.KreinError in KREIN_ERRORS
    assert errors.PreconditionFailed in KREIN_ERRORS


@pytest.mark.parametrize("cls", KREIN_ERRORS, ids=lambda c: c.__name__)
def test_errors_survive_pickling(cls):
    # the property suite's worker processes send errors back pickled
    if cls is errors.PreconditionFailed:
        exc = cls(["a", "bb"])
    else:
        exc = cls("operator is 3x4, want square")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    if cls is errors.PreconditionFailed:
        assert str(back) == "hypotheses failed: a; bb"
        assert back.failures == ["a", "bb"]
