"""Acceptance gate: every `slspectra verify` suite at three seeds.

The checks live once, in `slspectra.cli.SUITES`; this file only runs them.
Seed 0 is the CLI default and 7 the README and perfbench seed.  20260826
was the seed of a random Poincaré and norm-equivalence corpus; those
constants are now Rayleigh-Ritz values over a fixed span and take no seed,
and the seed stays as a third draw for the random checks of the other
suites.  README "Testing" maps each of the paper's criteria to the module
test that checks it.

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
