"""Acceptance gate: every `slspectra verify` suite at three seeds.

The checks live once, in `slspectra.cli.SUITES`; this file only runs them.
Seed 0 is the CLI default, 7 the README and perfbench seed, and 20260826 the
seed of the Poincaré and norm-equivalence corpus. README "Testing" maps each
of the paper's criteria to the module test that checks it.

Run with `pytest -s tests/test_acceptance.py` to see one line per check.
"""

import pytest

from slspectra.cli import SUITES


@pytest.mark.parametrize("seed", (0, 7, 20260826))
@pytest.mark.parametrize("suite", SUITES)
def test_verify_suite(suite, seed):
    failed = []
    for name, passed, value in SUITES[suite](seed):
        print(f"ACCEPTANCE {suite}/{name} seed {seed}: {'PASS' if passed else 'FAIL'} {value:.3e}")
        if not passed:
            failed.append(name)
    assert not failed, f"{suite} seed {seed} failed: {failed}"
