"""Repository benchmark for the NeurFill reproduction (see ``run.py``)."""
