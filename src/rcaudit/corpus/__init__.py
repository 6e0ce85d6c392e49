"""Dataset ingestion: unified schema (`schema`), format adapters
(`adapters`), filters (`filters`), annotation (`annotate`) and the loader
that ties them together (`loader`). Import names from those modules."""
