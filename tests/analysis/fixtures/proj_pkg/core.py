"""The class the package re-exports."""

from proj_pkg.helpers import tick


class Engine:
    def run(self):
        return tick()
