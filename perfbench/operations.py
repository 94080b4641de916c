"""Operation accounting: every checked call into the program is one operation."""


class OperationFailed(RuntimeError):
    pass


class Operations:
    """Counts checked calls; an exception or a failed check fails the call."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, label: str, call, check=lambda result: None):
        """call() is the operation; check(result) returns a problem or None."""
        self.attempted += 1
        try:
            result = call()
            problem = check(result)
        except Exception as exc:  # the benchmark reports failures and stops
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failed += 1
            raise OperationFailed(f"{label}: {problem}")
        return result
