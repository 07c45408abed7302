"""``python -m repro.lint`` — run the contract checkers over a tree.

Usage::

    python -m repro.lint src/repro                  # text report, exit 1 on findings
    python -m repro.lint src/repro --json           # JSON report on stdout
    python -m repro.lint src/repro --json-out lint-report.json
    python -m repro.lint src/repro --select D,H     # only those families
    python -m repro.lint src/repro --ignore D104    # drop one rule
    python -m repro.lint src/repro --write-baseline # snapshot current findings

The baseline file (``lint-baseline.json`` next to the repo's README by
default) suppresses known findings without hiding them: they are still
listed, marked ``[baselined]``, and do not affect the exit code.  CI
runs with the committed baseline, so only *new* findings fail the
build.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.base import Baseline, Finding, Project, rule_enabled
from repro.lint.determinism import check_determinism
from repro.lint.hashes import check_hash_participation
from repro.lint.registries import check_registries

__all__ = ["run_lint", "main"]

#: rule family -> checker, in report order
CHECKERS = (
    ("determinism", check_determinism),
    ("hash-participation", check_hash_participation),
    ("registry", check_registries),
)


def run_lint(
    package_root: str,
    repo_root: Optional[str] = None,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """All findings for one tree, rule-filtered, sorted by location."""
    project = Project(
        Path(package_root),
        Path(repo_root) if repo_root else None,
    )
    findings: List[Finding] = []
    for _family, checker in CHECKERS:
        findings.extend(checker(project))
    findings = [
        f for f in findings if rule_enabled(f.rule, select, ignore)
    ]
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return findings


def _split(spec: Optional[str]) -> Optional[List[str]]:
    if not spec:
        return None
    return [part.strip() for part in spec.split(",") if part.strip()]


def _report_json(
    new: Sequence[Finding], baselined: Sequence[Finding]
) -> Dict[str, object]:
    counts: Dict[str, int] = {}
    for finding in new:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    return {
        "findings": [f.to_json() for f in new],
        "baselined": [f.to_json() for f in baselined],
        "counts": counts,
        "ok": not new,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Contract-aware static analysis: determinism, "
            "hash-participation and registry checkers."
        ),
    )
    parser.add_argument(
        "package_root",
        help="package directory to lint (e.g. src/repro)",
    )
    parser.add_argument(
        "--repo-root",
        default=None,
        help="repo root holding README.md/docs/tests "
        "(default: walk up from the package root)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline file (default: <repo-root>/lint-baseline.json)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="snapshot the current findings into the baseline and exit 0",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule prefixes to enable (e.g. D,H2)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        help="comma-separated rule prefixes to disable (e.g. D104)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the JSON report on stdout instead of text",
    )
    parser.add_argument(
        "--json-out",
        default=None,
        metavar="PATH",
        help="also write the JSON report to PATH (CI artifact)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the OK summary line"
    )
    args = parser.parse_args(argv)

    try:
        project = Project(
            Path(args.package_root),
            Path(args.repo_root) if args.repo_root else None,
        )
    except NotADirectoryError as exc:
        parser.error(f"not a directory: {exc}")

    findings = run_lint(
        args.package_root,
        repo_root=args.repo_root,
        select=_split(args.select),
        ignore=_split(args.ignore),
    )

    baseline_path = (
        Path(args.baseline)
        if args.baseline
        else project.repo_root / "lint-baseline.json"
    )
    if args.write_baseline:
        Baseline.dump(baseline_path, findings)
        print(f"# wrote {len(findings)} finding(s) to {baseline_path}")
        return 0

    baseline = Baseline.load(baseline_path)
    new, baselined = _partition(findings, baseline)

    report = _report_json(new, baselined)
    if args.json_out:
        Path(args.json_out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json_out).write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8"
        )
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for finding in baselined:
            print(f"{finding.render()}  [baselined]")
        for finding in new:
            print(finding.render())
        if new:
            print(
                f"# {len(new)} finding(s) "
                f"({len(baselined)} baselined) — see docs/static_analysis.md"
            )
        elif not args.quiet:
            print(
                f"# OK: 0 findings ({len(baselined)} baselined) over "
                f"{len(project.sources())} files"
            )
    return 1 if new else 0


def _partition(
    findings: Sequence[Finding], baseline: Baseline
) -> Tuple[List[Finding], List[Finding]]:
    new: List[Finding] = []
    old: List[Finding] = []
    for finding in findings:
        (old if baseline.covers(finding) else new).append(finding)
    return new, old


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
