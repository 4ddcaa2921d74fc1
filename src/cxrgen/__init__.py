"""cxrgen: a self-contained multi-modal transformer for radiology report
generation at desk scale, with its full training, sampling, and evaluation
pipeline.

The package root exports nothing: import the module that holds a name, as in
``from cxrgen.model import ModelConfig``.
"""
