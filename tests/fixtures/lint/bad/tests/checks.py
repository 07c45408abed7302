# Fixture "tests" corpus: deliberately references no registry names,
# so R303 fires.
NOTHING = ()
