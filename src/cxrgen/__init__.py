"""cxrgen: a self-contained multi-modal transformer for radiology report
generation at desk scale, with its full training, sampling, and evaluation
pipeline.
"""

from .demographics import DemographicCodec, DemographicRecord, select_top_categories
from .checkpoint import load_checkpoint, parameter_checksum, save_checkpoint
from .data import (CorpusSpec, DataPoint, SplitManifest, default_corpus_spec,
                   sample_subsets, split, synthesize_corpus)
from .metrics import (Corpus, EmbeddingTable, EvaluationReport, TTestResult, bleu,
                      embedding_f1, evaluate_corpus, paired_t_test)
from .model import (ModelConfig, decoder_forward, encode_inputs, generate, init_parameters,
                    parameter_shapes)
from .optim import Adam
from .tensor import Tensor, backward, reset_graph
from .text import (CleanReport, Rejected, StandardizationMap, Vocabulary,
                   build_vocabulary, clean_report, decode_ids, encode_tokens)
from .training import TrainConfig, TrainLog, encode_examples, evaluate_loss, fit, train_step

__version__ = "0.1.0"
