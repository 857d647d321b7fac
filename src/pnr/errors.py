"""Exception types shared across the package."""


class PnrError(Exception):
    """Base class for all library errors."""


class DegenerateGaze(PnrError):
    """Eye-tracker sample whose world gaze point coincides with the camera
    origin; ``index`` is that sample's row in its track."""

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index


class EmptyWindow(PnrError):
    """No gaze samples fall inside the priming window of an event."""


class DegeneratePose(PnrError):
    """Joint configuration from which a facing direction cannot be derived."""


class MissingGaze(PnrError):
    """Ground-truth sequence lacks a gaze direction at its prime frame."""


class EmptyCorpus(PnrError):
    """An aggregate was requested over zero sequences."""


class InfeasibleSpec(PnrError):
    """Scenario parameters that cannot be realized kinematically."""


class UnreachableGoal(PnrError):
    """Goal outside the reachable span of the procedural synthesizer."""


class MalformedFile(PnrError):
    """Interchange file violating the JSONL schema; carries path and line number."""

    def __init__(self, path, line_no, reason):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = str(path)
        self.line_no = line_no
        self.reason = reason
