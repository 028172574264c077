"""The function the package re-exports."""


def tick():
    return 1
