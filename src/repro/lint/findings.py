"""Finding datatypes for the repro-lint invariant checker."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class Finding:
    """One invariant violation at a specific source location.

    ``line_text`` is the stripped source line, shown under the finding.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    line_text: str = field(default="", compare=False)

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "line_text": self.line_text,
        }
