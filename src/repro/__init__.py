"""repro — reproduction of "Towards Improving the Trustworthiness of
Hardware based Malware Detector using Online Uncertainty Estimation"
(Kumar, Chawla, Mukhopadhyay — DAC 2021, arXiv:2103.11519).

Subpackages
-----------
``repro.ml``
    From-scratch classical-ML substrate (estimators, ensembles,
    metrics, PCA, t-SNE, Platt calibration).
``repro.sim``
    Hardware substrates: workload archetypes, SoC DVFS governor
    simulator, CPU performance-counter model.
``repro.hmd``
    HMD components: application catalogues and feature extraction.
``repro.data``
    Dataset builders reproducing the paper's Table I.
``repro.uncertainty``
    The paper's contribution: ensemble vote-entropy uncertainty,
    rejection policies, trusted-HMD pipeline, online monitoring loop.
``repro.fleet``
    Fleet-scale batched streaming inference: multiplexed device
    streams, backpressure, vectorised batch verdicts, fleet reports.
``repro.obs``
    Telemetry plane: metrics registry, sampled window tracing and the
    live terminal dashboard over the running fleet.
``repro.experiments``
    Runners regenerating every table and figure of the evaluation.

Importing ``repro`` loads no subpackage; import the one you need
(``import repro.fleet``), so a fleet process never pays for the
experiment runners or scipy.
"""

__version__ = "1.1.0"

__all__ = ["__version__"]
