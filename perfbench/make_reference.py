"""Write reference/<workload>.csv: a serial run of each workload at REFERENCE_SEED.

Run from the root of a checkout: ``python3 perfbench/make_reference.py``.
Regenerate only when a change is meant to alter results, and say so.
"""

from __future__ import annotations

import run


def main() -> None:
    experiments = run.import_package()
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    for name, workload in run.WORKLOADS.items():
        result = experiments.run_experiment(
            workload.experiment,
            seed=run.REFERENCE_SEED,
            num_trials=workload.reference_trials,
            workers=1,
        )
        run.reference_path(name).write_text(result.to_csv(), encoding="utf-8")
        print(f"{name}: {len(result.rows)} rows, {result.num_failures} failures")


if __name__ == "__main__":
    main()
