"""The benchmark's workloads, by the name ``--workload`` takes."""

from perfbench.workloads.edge_hub import EdgeHub
from perfbench.workloads.gateway_serve import GatewayServe
from perfbench.workloads.patient_stream import PatientStream

WORKLOADS = {w.name: w for w in (PatientStream(), GatewayServe(), EdgeHub())}
