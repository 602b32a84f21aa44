import pytest

_criteria = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(num, name): acceptance criterion covered by this test",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    num, name = marker.args
    if report.when == "call":
        _criteria[num] = (name, report.passed)
    elif report.when == "setup" and report.failed:
        _criteria[num] = (name, False)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criteria:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_criteria):
        name, passed = _criteria[num]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {num:2d} ({name}): {verdict}")


@pytest.fixture(autouse=True)
def cold_op_memo():
    """Start every test with an empty op memo, as a fresh process does.

    Interned states are shared across calls, so without this a test's
    memo hits and counts would depend on which tests ran before it.
    """
    from qkdlab import register

    register._memo.clear()
