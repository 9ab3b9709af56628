import pytest

from keysec import run_invariant_suite


@pytest.mark.parametrize("n_max", [1, 2, 8])
def test_suite_passes_and_covers_every_module(n_max):
    results = run_invariant_suite(n_max=n_max, seed=42)
    failures = [r for r in results if not r.passed]
    assert not failures, failures
    names = [r.name for r in results]
    assert len(names) == len(set(names))
    # at least one invariant per module family
    for prefix in ("delta", "spike", "mixture", "conditional", "split_key",
                   "mac", "code", "budget", "cv"):
        assert any(prefix in n for n in names), prefix


def test_suite_is_deterministic():
    a = run_invariant_suite(n_max=6, seed=7)
    b = run_invariant_suite(n_max=6, seed=7)
    assert a == b
    c = run_invariant_suite(n_max=6, seed=8)
    assert [r.name for r in c] == [r.name for r in a]
