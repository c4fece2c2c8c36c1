"""No library function runs only under the tests.

``tests/golden/reach.py`` replays the golden CLI corpus and runs the demos
in one fresh interpreter under ``sys.setprofile``, and prints every
library ``def`` that was never entered.  That list must be exactly
``UNREACHED``, each entry with the reason it stays.  A helper that only
the tests call belongs in the tests (``tests/exhaustive.py`` holds the
cross-checks); a new golden case or demo that reaches an entry drops it
from here.
"""

import os
import subprocess
import sys

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "reach.py")

DUNDER = "protocol dunder: repr, hash, truth value or an operator of a kept ring"
ELEMENT_API = "public FieldElement arithmetic"
KERNEL_ROW = "public field API that perfbench/kernels.py times"

UNREACHED = {
    "codes.ConstaCode.__hash__": DUNDER,
    "codes.ConstaCode.__repr__": DUNDER,
    "cosets.CodeParams.__repr__": DUNDER,
    "cosets.CodeParams.image": "README's library tour: one coset's image s*Q",
    "cosets.CosetFunction.__repr__": DUNDER,
    "cosets.QCoset.__repr__": DUNDER,
    "duality.Isometry.__hash__": DUNDER,
    "duality.Isometry.__repr__": DUNDER,
    "duality.SelfDualCertificate.__bool__": DUNDER,
    "gf.Field.elements": KERNEL_ROW,
    "gf.FieldElement.__repr__": DUNDER,
    "gf.FieldElement.__sub__": ELEMENT_API,
    "gf.FieldElement.__truediv__": ELEMENT_API,
    "gf.FieldElement.inverse": KERNEL_ROW,
    "gf._power_of_zero": "powers of zero only: 0^0 = 1, 0^k = 0, and k < 0 raises",
    "oracle.Matrix.rank": "perfbench/tracing.py rebinds it by name",
    "oracle.generator_matrix": "perfbench/tracing.py rebinds it by name",
    "polyring.Poly.__bool__": DUNDER,
    "polyring.Poly.__divmod__": DUNDER,
    "polyring.Poly.__hash__": DUNDER,
    "polyring.Poly.__mod__": DUNDER,
    "polyring.Poly.__neg__": DUNDER,
    "polyring.Poly.__repr__": DUNDER,
    "polyring.Poly.__sub__": DUNDER,
    "polyring.QuotientElem.__bool__": DUNDER,
    "polyring.QuotientElem.__hash__": DUNDER,
    "polyring.QuotientElem.__neg__": DUNDER,
    "polyring.QuotientElem.__repr__": DUNDER,
    "polyring.QuotientElem.__sub__": DUNDER,
    "polyring.QuotientElem.vector": "the coordinates of an element of R_{n,lambda}, "
                                    "the inverse of from_vector",
}


def test_only_allowlisted_library_functions_go_unreached():
    # a subprocess: in this one, the memos that earlier tests filled would
    # answer without entering the functions behind them
    out = subprocess.run([sys.executable, SCRIPT], check=True, capture_output=True,
                         text=True).stdout
    assert set(out.split()) == set(UNREACHED)
