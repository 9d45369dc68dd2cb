"""Check reports shared by the verification entry points."""

from __future__ import annotations

__all__ = ["Check", "VerificationReport"]


class Check:
    """One named check: whether it passed, and a witness if it failed."""

    def __init__(self, name, passed, witness=""):
        self.name = name
        self.passed = passed
        self.witness = witness

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.passed, self.witness) \
            == (other.name, other.passed, other.witness)

    def __repr__(self):
        return (f"Check(name={self.name!r}, passed={self.passed!r}, "
                f"witness={self.witness!r})")

    def to_dict(self):
        d = {"name": self.name, "pass": self.passed}
        if self.witness:
            d["witness"] = self.witness
        return d


class VerificationReport:
    """An ordered list of named checks; passes iff no check failed."""

    def __init__(self, subject, checks=None):
        self.subject = subject
        self.checks = [] if checks is None else checks

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.subject, self.checks) == (other.subject, other.checks)

    def __repr__(self):
        return (f"VerificationReport(subject={self.subject!r}, "
                f"checks={self.checks!r})")

    def add(self, name, passed, witness=""):
        self.checks.append(Check(name, bool(passed), witness))
        return self

    def extend(self, other):
        self.checks.extend(other.checks)
        return self

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def to_dict(self):
        return {
            "subject": self.subject,
            "pass": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }

    def summary(self, verbose=False):
        lines = [f"{self.subject}: {'PASS' if self.passed else 'FAIL'} "
                 f"({sum(c.passed for c in self.checks)}/{len(self.checks)} checks)"]
        for c in self.checks:
            if verbose or not c.passed:
                mark = "ok " if c.passed else "FAIL"
                line = f"  [{mark}] {c.name}"
                if c.witness and not c.passed:
                    line += f": {c.witness}"
                lines.append(line)
        return "\n".join(lines)
