"""The argument domains that several modules share, each checked here
once: counts and dimensions, the cap radius sigma and the pole exponent
beta.  Every rule raises ValueError naming the argument, on a value
that is no number (None, a list, a string that does not parse) too,
and returns the value in the type the caller computes with.  Imports
nothing from capsmooth, so any module of it may import this one.
"""


def integer(value, name, least=1, below=None):
    """value as an int, when it is a whole number in [least, below):
    an int, a numpy integer or an integral float (3.0).  NaN, an
    infinity, a fraction, a value out of range and a value that is no
    number at all (None, a list) raise ValueError; nothing is
    truncated."""
    whole = value
    # a plain int needs no conversion: the common case, at its cost
    if type(value) is not int:
        try:
            whole = int(value)
        except (TypeError, ValueError, OverflowError):
            whole = None
    if (whole is None or whole != value or whole < least
            or below is not None and whole >= below):
        raise ValueError("%s must be an integer in [%d, %s), got %r"
                         % (name, least, "inf" if below is None else below,
                            value))
    return whole


def real(value, name):
    """value as a float; a value that is no number raises ValueError
    naming the argument.  The range is the caller's to check."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError("%s must be a real number, got %r"
                         % (name, value)) from None


def check_sigma(sigma):
    """The cap radius sigma as a float in (0, 1]."""
    sigma = real(sigma, "sigma")
    if not 0.0 < sigma <= 1.0:
        raise ValueError("sigma must lie in (0, 1], got %r" % (sigma,))
    return sigma


def check_beta(n, beta):
    """The pole exponent beta as a float in [0, n), n already checked."""
    beta = real(beta, "beta")
    if not 0.0 <= beta < n:
        raise ValueError("beta must lie in [0, n) with n = %d, got %r"
                         % (n, beta))
    return beta
