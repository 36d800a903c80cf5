from hypothesis import settings

# Examples are derived from each test's name, so a run is repeatable, and
# no per-example deadline applies: wall time on a shared host is noisy.
settings.register_profile("wann", deadline=None, derandomize=True)
settings.load_profile("wann")
