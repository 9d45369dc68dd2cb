"""One hypothesis profile for every property test in the suite."""

from hypothesis import settings

# No per-example deadline: the speed of a shared host drifts by up to 2x.
settings.register_profile("hopfpath", deadline=None, max_examples=60)
settings.load_profile("hopfpath")
