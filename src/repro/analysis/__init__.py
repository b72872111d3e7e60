"""Measurement harness: statistics, tables, experiment drivers."""

from .instance_report import InstanceProfile, instances_report, profile_instance
from .stats import Aggregate, PartitionStats, aggregate, partition_stats
from .tables import fmt, render_table

__all__ = [
    "PartitionStats",
    "partition_stats",
    "Aggregate",
    "aggregate",
    "render_table",
    "fmt",
    "InstanceProfile",
    "profile_instance",
    "instances_report",
]
