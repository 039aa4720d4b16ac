package main

// metricDef names one reported metric. BENCHMARK.json lists the same names,
// units, directions and bounds; a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // share of the parent's median an end-to-end metric may worsen by; 0 for per-layer metrics
}

// endToEnd are the metrics a user of the system sees. Every workload reports
// every one of them, from untraced repetitions only.
var endToEnd = []metricDef{
	{"tasks_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"retained_heap_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics of single layers (this repo's packages), all from
// the traced run: in-situ counts and spans of the traced repetitions, and
// stand-alone probes of each layer's exported constructor.
var perLayer = []metricDef{
	// The two end-to-end figures that are zero on some workload and so
	// cannot carry a bound.
	{"workload.transfer_mb_per_s", "MB/s", "higher", 0},
	{"workload.failed_ops_ratio", "ratio", "lower", 0},

	{"runtime.cpu_us_per_op", "us", "lower", 0},
	{"runtime.allocs_per_op", "count", "lower", 0},
	{"runtime.alloc_bytes_per_op", "B", "lower", 0},
	{"runtime.gc_pause_ms_per_s", "ms/s", "lower", 0},
	{"runtime.decay_ratio", "ratio", "higher", 0},

	{"ray.remote_p50_us", "us", "lower", 0},
	{"ray.remote_p99_us", "us", "lower", 0},
	{"ray.remote_busy_share", "ratio", "lower", 0},
	{"ray.get_p50_us", "us", "lower", 0},
	{"ray.get_p99_us", "us", "lower", 0},
	{"ray.free_p50_us", "us", "lower", 0},
	{"ray.wait_p50_us", "us", "lower", 0},
	{"ray.get_unexplained_p50_us", "us", "lower", 0},
	{"ray.op_self_p50_us", "us", "lower", 0},

	{"phase.submit_p50_us", "us", "lower", 0},
	{"phase.submit_p99_us", "us", "lower", 0},
	{"phase.queue_p50_us", "us", "lower", 0},
	{"phase.queue_p99_us", "us", "lower", 0},
	{"phase.dispatch_p50_us", "us", "lower", 0},
	{"phase.dispatch_p99_us", "us", "lower", 0},
	{"phase.exec_p50_us", "us", "lower", 0},
	{"phase.exec_p99_us", "us", "lower", 0},
	{"phase.store_p50_us", "us", "lower", 0},
	{"phase.store_p99_us", "us", "lower", 0},
	{"phase.transfer_p50_us", "us", "lower", 0},
	{"phase.transfer_p99_us", "us", "lower", 0},
	{"phase.spans_dropped", "count", "lower", 0},

	{"task.marshal_ns", "ns", "lower", 0},
	{"task.unmarshal_ns", "ns", "lower", 0},
	{"task.marshal_allocs", "count", "lower", 0},
	{"task.spec_bytes", "B", "lower", 0},
	{"codec.encode_4k_ns", "ns", "lower", 0},
	{"codec.decode_4k_ns", "ns", "lower", 0},

	{"kv.put_ns", "ns", "lower", 0},
	{"chain.put_rf2_ns", "ns", "lower", 0},
	{"chain.putbatch256_rf2_ns_per_entry", "ns", "lower", 0},

	{"gcs.puts_per_op", "count", "lower", 0},
	{"gcs.gets_per_op", "count", "lower", 0},
	{"gcs.commits_per_kop", "count", "lower", 0},
	{"gcs.entries_per_commit", "count", "higher", 0},
	{"gcs.coalesced_ratio", "ratio", "higher", 0},
	{"gcs.resident_bytes_per_op", "B", "lower", 0},
	{"gcs.add_task_ns", "ns", "lower", 0},
	{"gcs.add_task_allocs", "count", "lower", 0},
	{"gcs.update_status_ns", "ns", "lower", 0},
	{"gcs.add_location_ns", "ns", "lower", 0},
	{"gcs.get_object_ns", "ns", "lower", 0},
	{"gcs.commit_wait_p50_us", "us", "lower", 0},
	{"gcs.notify_p50_us", "us", "lower", 0},

	{"job.fairqueue_1job_ns", "ns", "lower", 0},
	{"job.fairqueue_4jobs_ns", "ns", "lower", 0},

	{"scheduler.forwarded_ratio", "ratio", "lower", 0},
	{"scheduler.failed", "count", "lower", 0},
	{"scheduler.local_submit_ns", "ns", "lower", 0},
	{"scheduler.local_submit_allocs", "count", "lower", 0},
	{"scheduler.local_latency_p50_us", "us", "lower", 0},
	{"scheduler.global_schedule_ns", "ns", "lower", 0},

	{"cluster.global_decisions_per_kop", "count", "lower", 0},
	{"cluster.actor_routes_per_op", "count", "lower", 0},
	{"cluster.objects_reclaimed_per_op", "count", "higher", 0},
	{"cluster.pending_withdrawals_end", "count", "lower", 0},
	{"cluster.forward_roundtrip_p50_ms", "ms", "lower", 0},

	{"worker.tasks_run_per_op", "count", "lower", 0},
	{"worker.methods_run_per_op", "count", "lower", 0},
	{"worker.app_errors", "count", "lower", 0},
	{"worker.pool_run_ns", "ns", "lower", 0},
	{"worker.pool_run_allocs", "count", "lower", 0},

	{"objectstore.puts_per_op", "count", "lower", 0},
	{"objectstore.hit_ratio", "ratio", "higher", 0},
	{"objectstore.evictions", "count", "lower", 0},
	{"objectstore.used_bytes_end", "B", "lower", 0},
	{"objectstore.put_1k_ns", "ns", "lower", 0},
	{"objectstore.put_64k_ns", "ns", "lower", 0},
	{"objectstore.put_4m_mb_per_s", "MB/s", "higher", 0},
	{"objectstore.put_copies_4m", "ratio", "lower", 0},
	{"objectstore.get_ns", "ns", "lower", 0},
	{"objectstore.getpin_unpin_ns", "ns", "lower", 0},
	{"objectstore.beginput_commit_4m_us", "us", "lower", 0},

	{"objectmanager.pulls_per_op", "count", "lower", 0},
	{"objectmanager.bytes_pulled_per_op", "B", "lower", 0},
	{"objectmanager.chunks_per_pull", "count", "lower", 0},
	{"objectmanager.transfer_busy_share", "ratio", "lower", 0},
	{"objectmanager.wire_efficiency", "ratio", "higher", 0},
	{"objectmanager.pull_64k_us", "us", "lower", 0},
	{"objectmanager.pull_4m_ms", "ms", "lower", 0},
	{"objectmanager.pull_copies_4m", "ratio", "lower", 0},
	{"netsim.wire_4m_ms", "ms", "lower", 0},
	{"netsim.wire_64k_us", "us", "lower", 0},

	{"lineage.replays", "count", "lower", 0},

	{"telemetry.observe_ns", "ns", "lower", 0},
	{"telemetry.record_span_ns", "ns", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},

	{"budget.sum_layers_us", "us", "lower", 0},
	{"budget.explained_share", "ratio", "higher", 0},
}

// metricSet is a set of named values being collected; units come from the
// catalogue when the set is reported.
type metricSet map[string]float64
