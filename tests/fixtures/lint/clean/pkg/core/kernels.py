import os

ENV_VAR = "FIXTURE_KERNEL"  # env reads are sanctioned in core/kernels.py
_selected = os.environ.get(ENV_VAR, "numpy")
