# Fixture "tests" corpus (data, not collected by pytest): quoted
# registry names satisfy rule R303.

REGISTRY_REFS = ("alpha-router",)
