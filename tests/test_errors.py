import numpy as np

from slabgreen.errors import check


class _Unread:
    """An error-record entry that fails any comparison, so a test sees the record read."""

    def __eq__(self, other):
        raise AssertionError("the error record was read")

    __ne__ = __eq__


def test_check_reads_no_record_when_every_row_holds():
    errors = np.array([_Unread(), _Unread()], dtype=object)
    check(np.array([True, True]), "never written", errors)
    check(True, "never written", errors)
