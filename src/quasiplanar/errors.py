"""Exception types raised across the package."""


class DiagramError(ValueError):
    """Base class for rejections of raw diagram input.

    ``location`` is the JSON pointer of the offending pair or list, set where
    the error is raised, or None; ``parse`` puts it in front of the message.
    """

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


class NotAPartialOrder(DiagramError):
    """The candidate order relation contains a cycle or a self-loop."""


class NotBounded(DiagramError):
    """The order lacks a unique minimum or a unique maximum."""


class LeftIncomplete(DiagramError):
    """Some incomparable pair carries no left/right orientation."""


class LeftOnComparable(DiagramError):
    """A left pair was given for comparable (or identical) elements."""


class NotLinearizable(DiagramError):
    """order + left or order + inverted left fails to be a linear order."""


class NotALattice(ValueError):
    """Some pair of elements has no least upper or greatest lower bound.

    ``witness`` is a tuple (x, y, b1, b2): a pair together with two distinct
    minimal upper bounds (or maximal lower bounds) that prove the failure.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotSlimSemimodular(ValueError):
    """The input is not a slim semimodular lattice diagram."""


class ChainsDoNotCoverJir(ValueError):
    """The prescribed boundary chains miss a join-irreducible element."""


class LawViolation(ValueError):
    """A structural law that must hold for every valid input failed.

    Raised by the law suite only, and never by an ``assert``, so the laws
    are still checked under ``python -O``.
    """


class InvalidGroundElement(ValueError):
    """A closure argument mentions the bottom element or an unknown element."""


class SizeTooLarge(ValueError):
    """Brute-force enumeration was asked to run above its size guard."""


class MalformedDocument(ValueError):
    """Structurally invalid diagram document.

    ``location`` is a JSON-pointer-style path to the offending entry.
    """

    def __init__(self, message, location=""):
        super().__init__(f"{location}: {message}" if location else message)
        self.location = location


class ShareFailed(RuntimeError):
    """A child process running a block of canonical ranks did not report it.

    The block is a share of the law suite, or a block of ``count`` or
    ``enumerate``.  ``ranks`` is its range ``(lo, hi)`` of canonical ranks
    and ``status`` the child's exit status, or minus the number of the
    signal that ended it.
    """

    def __init__(self, message, ranks, status):
        super().__init__(message)
        self.ranks = ranks
        self.status = status
