import pickle

import numpy as np
import pytest

from kreinalg import errors
from kreinalg.bkfact import BKFactorization, keyth_verify
from kreinalg.densela import herm_eig, spectral_norm
from kreinalg.hermdex import canonical_form, transport
from kreinalg.krein import (KOperator, c_orthogonal, classify_subspace, hilbert_space,
                            make_space, make_subspace)
from kreinalg.phillips import check_compatibility, graph_rep

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


J2 = np.diag([1.0, -1.0])
H2, E2, H3 = make_space(J2), hilbert_space(2), make_space(np.diag([1.0, -1.0, -1.0]))
C2 = KOperator(H2, H2, J2)
X2 = canonical_form(C2).X                               # a congruence onto C^2
M3 = make_subspace(H3, np.eye(3)[:, :1])
S2 = BKFactorization(KOperator(H2, E2, np.eye(2)))      # T = I, J_A = J2

# each library refusal with its error class and a fragment of its message
REFUSALS = {
    "transport_dims": (lambda: transport(KOperator(H3, H3, np.eye(3)), X2),
                       errors.DimensionMismatch, "congruence codomain"),
    "transport_other_space": (lambda: transport(C2, X2), errors.DimensionMismatch,
                              "congruence codomain"),
    "transport_nonselfadjoint": (lambda: transport(KOperator(E2, E2, [[0, 1], [0, 0]]), X2),
                                 errors.NotSelfadjoint,
                                 "transport requires a selfadjoint operator"),
    "keyth_nonselfadjoint": (lambda: keyth_verify(KOperator(E2, E2, [[1, 1], [0, 1]]), S2),
                             errors.PreconditionFailed, "operator is not selfadjoint"),
    "make_space_nonsquare": (lambda: make_space(np.ones((2, 3))), errors.NotSymmetry,
                             "must be square"),
    "make_space_nan": (lambda: make_space([[np.nan]]), errors.InputError, "NaN or Inf"),
    "make_subspace_rows": (lambda: make_subspace(H2, np.ones((3, 1))),
                           errors.DimensionMismatch, "in a 2-dimensional space"),
    "classify_other_space": (lambda: classify_subspace(C2, M3), errors.DimensionMismatch,
                             "operator's space"),
    "c_orthogonal_other_space": (lambda: c_orthogonal(C2, M3, M3),
                                 errors.DimensionMismatch, "operator's space"),
    "compatibility_two_spaces": (
        lambda: check_compatibility(graph_rep(make_subspace(H2, [[1.0], [0.0]]), "plus"),
                                    graph_rep(make_subspace(H3, np.eye(3)[:, 1:2]), "minus")),
        errors.DimensionMismatch, "different spaces"),
    "herm_eig_nonsquare": (lambda: herm_eig(np.ones((2, 3))), errors.NotHermitian, "not square"),
    "spectral_norm_vector": (lambda: spectral_norm(np.ones(3)), errors.InputError, "2-d matrix"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_library_refusals(name):
    call, cls, message = REFUSALS[name]
    with pytest.raises(cls, match=message):
        call()
