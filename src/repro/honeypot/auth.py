"""Authentication rule of the honeynet's Cowrie deployment.

Paper section 3.2: password authentication as ``root`` with *any*
password except the literal string ``"root"`` is accepted; public keys
are not supported; Telnet uses the same rule.  Additionally (section 8),
the deployed Cowrie version ships the well-known default account
``phil`` (which superseded ``richard`` in 2020), which attackers abuse
to fingerprint Cowrie — so ``phil`` logins succeed while ``richard``
logins fail on this version.
"""

from __future__ import annotations

#: The one password ``root`` may not log in with.
ROOT_REJECTED_PASSWORD = "root"

#: Cowrie's default account on the deployed version; any password works.
DEFAULT_ACCOUNT = "phil"


def accepts(username: str, password: str) -> bool:
    """Whether a login with these credentials succeeds on every sensor."""
    if username == "root":
        return password != ROOT_REJECTED_PASSWORD
    return username == DEFAULT_ACCOUNT
