"""CLI entry point, config grammar, persistence and the parallel-map facility."""

from .config import ConfigError, config_digest, parse_config
from .parallel import parallel_map

__all__ = ["ConfigError", "config_digest", "parse_config", "parallel_map"]
