"""Check a ``loem surface`` CSV/JSON pair against the closed form.

Usage: python3 check_tables.py SURFACE.csv SURFACE.json RESOLUTION SEED

Every row must lie on the grid and its four probabilities must sum to 1;
rows sampled with SEED must match P1 = cos^4(t/2), P2 = sin^4(t/2),
P3 = sin^2 t sin^2 p / 2, P4 = sin^2 t cos^2 p / 2 (N = 1); the JSON rows
must equal the CSV rows value for value.  Prints one JSON line
``{"rows": n, "problems": [...]}``.  Standard library only, so it runs in a
small process of its own.
"""

import csv
import json
import math
import random
import sys

COLUMNS = ["theta_deg", "phi_deg", "p1", "p2", "p3", "p4"]
SAMPLES = 2000
TOL = 1e-12


def closed_form(theta_deg: float, phi_deg: float) -> tuple[float, ...]:
    a, b = math.radians(theta_deg), math.radians(phi_deg)
    sin_a_sq = math.sin(a) ** 2
    return (
        math.cos(0.5 * a) ** 4,
        math.sin(0.5 * a) ** 4,
        0.5 * sin_a_sq * math.sin(b) ** 2,
        0.5 * sin_a_sq * math.cos(b) ** 2,
    )


def check(csv_path: str, json_path: str, resolution: int, seed: int) -> tuple[int, list[str]]:
    total = resolution * resolution
    sampled = set(random.Random(seed).sample(range(total), min(SAMPLES, total)))
    step = 360.0 / resolution
    problems: list[str] = []
    with open(json_path, encoding="utf-8") as handle:
        json_rows = json.load(handle)
    if not isinstance(json_rows, list):
        return 0, ["JSON output is not a list of rows"]
    count = 0
    with open(csv_path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        if next(reader, None) != COLUMNS:
            return 0, [f"CSV header is not {COLUMNS}"]
        for index, cells in enumerate(reader):
            count += 1
            if len(problems) >= 5:
                continue
            try:
                values = [float(v) for v in cells]
            except ValueError:
                values = []
            if len(values) != 6 or not all(math.isfinite(v) for v in values):
                problems.append(f"row {index}: {cells}")
                continue
            theta, phi, probs = values[0], values[1], values[2:]
            i, j = divmod(index, resolution)
            if abs(theta - i * step) > 1e-9 or abs(phi - j * step) > 1e-9:
                problems.append(f"row {index}: ({theta}, {phi}) is not grid point ({i}, {j})")
            if abs(sum(probs) - 1.0) > TOL:
                problems.append(f"row {index}: probabilities sum to {sum(probs)!r}")
            if index in sampled:
                expected = closed_form(theta, phi)
                if max(abs(p - e) for p, e in zip(probs, expected)) > TOL:
                    problems.append(f"row {index}: {probs} differs from the closed form {expected}")
            if index < len(json_rows):
                row = json_rows[index]
                if not isinstance(row, dict) or list(row) != COLUMNS or [row[c] for c in COLUMNS] != values:
                    problems.append(f"row {index}: JSON {row} differs from CSV {cells}")
    if count != total:
        problems.append(f"CSV has {count} rows, expected {total}")
    if len(json_rows) != count:
        problems.append(f"JSON has {len(json_rows)} rows, CSV {count}")
    return count, problems


def main(argv: list[str]) -> int:
    csv_path, json_path, resolution, seed = argv
    rows, problems = check(csv_path, json_path, int(resolution), int(seed))
    print(json.dumps({"rows": rows, "problems": problems}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
