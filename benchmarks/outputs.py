"""Verdicts as the command line prints them, and their comparison with the oracle.

This module imports nothing, so the set-up probe can load it before it
starts timing without importing any module the engine would import.
"""


def verdict_json(v) -> dict:
    """A verdict as ``tritangle classify --json`` prints it."""
    return {
        "status": v.status,
        "summary": v.summary(),
        "annulus_count": str(v.annulus_count) if v.annulus_count is not None else None,
        "hyperbolic": v.hyperbolic,
        "branch": v.branch,
        "annuli": list(v.annuli),
        "notes": list(v.notes),
        "violations": [str(x) for x in v.violations],
    }


def verdict_matches(actual: dict, expected: dict) -> bool:
    """Compare a verdict in ``verdict_json`` form with an oracle verdict."""
    if actual["status"] != expected["status"]:
        return False
    if expected["status"] == "classified":
        count = expected["count"]
        return (actual["branch"] == expected["branch"]
                and actual["annulus_count"] == ("inf" if count is None else str(count))
                and actual["hyperbolic"] == (count == 0))
    if expected["status"] == "inadmissible":
        return {v.split(" (", 1)[0] for v in actual["violations"]} == expected["rules"]
    return True
