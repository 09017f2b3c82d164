"""Multi-scanner URL scan-report analytics.

Ingests line-delimited scan-report feeds, rebuilds per-scanner daily label
series, and computes scanner-behavior analytics (accuracy trends, label
certainty, correlation and clustering, lead/lag) plus a phishing-vs-malware
classifier built on latent scanner clusters, with a deterministic synthetic
feed generator for end-to-end verification.
"""

__version__ = "0.1.0"
