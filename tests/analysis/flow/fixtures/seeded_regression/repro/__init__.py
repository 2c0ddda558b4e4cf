# Seeded-regression fixture: a miniature ``repro`` package that trips
# every rule class ``analyze --all`` reports (the three flow contracts,
# each lint rule, determinism-taint, the lifetime rules, stale
# waivers).  Parsed by the analyser, never imported; CI injects it to
# prove the analyze job still catches regressions.
