"""A helper a durable module calls, in a module not listed as durable."""


def write_report(path, payload):
    # store.save_everything calls it, but only the listed modules are
    # checked: flagged once atomic_bad_pkg.caller is listed too
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(str(payload))
