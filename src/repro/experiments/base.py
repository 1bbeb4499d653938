"""Experiment framework: one class per paper table/figure."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.text import format_table


@dataclass
class ExperimentResult:
    """Structured output of one experiment.

    ``rows`` is the regenerated figure/table data; ``notes`` records the
    paper-vs-measured comparisons that feed EXPERIMENTS.md.
    """

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list[object]]
    notes: list[str] = field(default_factory=list)
    extra_text: str = ""

    def render(self) -> str:
        parts = [f"== {self.experiment_id}: {self.title} =="]
        if self.rows:
            parts.append(format_table(self.headers, self.rows))
        if self.extra_text:
            parts.append(self.extra_text)
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts)

    def to_json(self) -> str:
        """The full result as a JSON document (for plotting elsewhere)."""
        import json

        return json.dumps(
            {
                "experiment_id": self.experiment_id,
                "title": self.title,
                "headers": self.headers,
                "rows": self.rows,
                "notes": self.notes,
            },
            default=str,
            indent=2,
        )

    def to_csv(self) -> str:
        """Rows as CSV text (header line first)."""
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.headers)
        writer.writerows(self.rows)
        return buffer.getvalue()


class Experiment:
    """Base class: subclasses set metadata and implement ``run``."""

    experiment_id: str = ""
    title: str = ""
    paper_reference: str = ""

    def run(self, dataset) -> ExperimentResult:  # noqa: ANN001
        raise NotImplementedError

    def result(
        self,
        headers: list[str],
        rows: list[list[object]],
        notes: list[str] | None = None,
        extra_text: str = "",
    ) -> ExperimentResult:
        return ExperimentResult(
            experiment_id=self.experiment_id,
            title=self.title,
            headers=headers,
            rows=rows,
            notes=notes or [],
            extra_text=extra_text,
        )


#: experiment_id → Experiment subclass.
REGISTRY: dict[str, type[Experiment]] = {}


def register(cls: type[Experiment]) -> type[Experiment]:
    """Class decorator adding an experiment to the registry."""
    if not cls.experiment_id:
        raise ValueError(f"{cls.__name__} lacks an experiment_id")
    if cls.experiment_id in REGISTRY:
        raise ValueError(f"duplicate experiment id {cls.experiment_id}")
    REGISTRY[cls.experiment_id] = cls
    return cls


def get_experiment(experiment_id: str) -> Experiment:
    return REGISTRY[experiment_id]()
