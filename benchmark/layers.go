package main

import (
	"sort"

	"ray/internal/netsim"
	"ray/internal/telemetry"
)

// phases are the program's own span phases, in task-lifecycle order.
var phases = []string{
	telemetry.PhaseSubmit, telemetry.PhaseQueue, telemetry.PhaseDispatch,
	telemetry.PhaseExec, telemetry.PhaseStore, telemetry.PhaseTransfer,
}

// inSituMetrics derives one traced repetition's per-layer metrics: ratios of
// counter deltas over the timed section, percentiles of the benchmark's API
// spans, and percentiles of the program's phase spans.
func inSituMetrics(w workload, r *repResult) metricSet {
	m := metricSet{}
	d := r.delta
	ops := float64(r.verified)
	wallNs := r.wallS * 1e9

	m["workload.transfer_mb_per_s"] = ratio(float64(w.bulkBytesPerOp)*ops/1e6, sum(r.latencyMs)/1e3)
	m["workload.failed_ops_ratio"] = ratio(float64(r.failed), float64(r.attempted))

	m["runtime.cpu_us_per_op"] = ratio(d[cCPUMicros], ops)
	m["runtime.allocs_per_op"] = ratio(d[cMallocs], ops)
	m["runtime.alloc_bytes_per_op"] = ratio(d[cAllocBytes], ops)
	m["runtime.gc_pause_ms_per_s"] = ratio(d[cGCPauseNs]/1e6, r.wallS)

	m["gcs.puts_per_op"] = ratio(d[cGCSPuts], ops)
	m["gcs.gets_per_op"] = ratio(d[cGCSGets], ops)
	m["gcs.commits_per_kop"] = ratio(d[cGCSCommits]*1000, ops)
	m["gcs.entries_per_commit"] = ratio(d[cGCSBatched]-d[cGCSCoalesced], d[cGCSCommits])
	m["gcs.coalesced_ratio"] = ratio(d[cGCSCoalesced], d[cGCSBatched])
	m["gcs.resident_bytes_per_op"] = ratio(d[cGCSResidentBytes], ops)

	tasks := ops * float64(w.tasksPerOp)
	m["scheduler.forwarded_ratio"] = ratio(d[cSchedForwarded], tasks)
	m["scheduler.failed"] = d[cSchedFailed]

	m["cluster.global_decisions_per_kop"] = ratio(d[cGlobalDecisions]*1000, ops)
	m["cluster.actor_routes_per_op"] = ratio(d[cActorRoutes], ops)
	m["cluster.objects_reclaimed_per_op"] = ratio(d[cReclaimed], ops)
	m["cluster.pending_withdrawals_end"] = r.end.pendingWithdrawals

	m["worker.tasks_run_per_op"] = ratio(d[cTasksRun], ops)
	m["worker.methods_run_per_op"] = ratio(d[cMethodsRun], ops)
	m["worker.app_errors"] = d[cAppErrors]

	m["objectstore.puts_per_op"] = ratio(d[cStorePuts], ops)
	m["objectstore.hit_ratio"] = ratio(d[cStoreHits], d[cStoreGets])
	m["objectstore.evictions"] = d[cEvictions]
	m["objectstore.used_bytes_end"] = r.end.storeUsedBytes

	m["objectmanager.pulls_per_op"] = ratio(d[cPulls], ops)
	m["objectmanager.bytes_pulled_per_op"] = ratio(d[cBytesPulled], ops)
	m["objectmanager.chunks_per_pull"] = ratio(d[cChunks], d[cPulls])
	m["objectmanager.transfer_busy_share"] = ratio(d[cTransferNs], wallNs)
	// The model's floor for the bytes actually pulled, as pulls of the mean
	// size over every stream, against the time the pulls took.
	net := netsim.New(w.network)
	floorNs := d[cPulls] * float64(net.Scale(net.TransferDuration(int64(ratio(d[cBytesPulled], d[cPulls])), w.network.MaxParallelStreams)))
	m["objectmanager.wire_efficiency"] = ratio(floorNs, d[cTransferNs])

	m["lineage.replays"] = d[cReplays]
	m["phase.spans_dropped"] = d[cSpansDropped]

	tr := r.trace
	if tr == nil {
		return m
	}
	m["cluster.forward_roundtrip_p50_ms"] = tr.forwardP50Ms

	var all []span
	for _, spans := range tr.perDriver {
		all = append(all, spans...)
	}
	byKind, opSelf := durationsByKind(all)
	remote, get := sortedCopy(byKind[spanRemote]), sortedCopy(byKind[spanGet])
	m["ray.remote_p50_us"] = percentile(remote, 0.5)
	m["ray.remote_p99_us"] = tail(remote, 0.99)
	m["ray.get_p50_us"] = percentile(get, 0.5)
	m["ray.get_p99_us"] = tail(get, 0.99)
	m["ray.free_p50_us"] = median(byKind[spanFree])
	m["ray.wait_p50_us"] = median(byKind[spanWait])
	m["ray.op_self_p50_us"] = median(opSelf)
	// Every driver is busy in Remote for its share of the same wall time.
	m["ray.remote_busy_share"] = ratio(sum(byKind[spanRemote])*1e3, wallNs*float64(w.drivers))
	m["runtime.decay_ratio"] = decayRatio(all, tr.timedStart)

	byPhase := map[string][]float64{}
	var program []interval
	base := tr.epoch.UnixNano()
	submitted := map[string]int64{}
	for _, sp := range tr.program {
		if sp.Phase == telemetry.PhaseSubmit {
			submitted[sp.Task] = sp.StartUnixNano
		}
	}
	for _, sp := range tr.program {
		switch sp.Phase {
		case telemetry.PhaseSubmit:
			// An instant in the program's trace; its length is taken below.
			continue
		case telemetry.PhaseQueue:
			// The submit phase runs from the submit instant to the task's
			// acceptance into a scheduler queue: the lineage write plus
			// routing (and forwarding, when the task was placed elsewhere).
			if at, ok := submitted[sp.Task]; ok && sp.StartUnixNano >= at {
				byPhase[telemetry.PhaseSubmit] = append(byPhase[telemetry.PhaseSubmit], float64(sp.StartUnixNano-at)/1e3)
				program = append(program, interval{at - base, sp.StartUnixNano - base})
			}
		}
		byPhase[sp.Phase] = append(byPhase[sp.Phase], float64(sp.DurationNanos)/1e3)
		start := sp.StartUnixNano - base
		program = append(program, interval{start, start + sp.DurationNanos})
	}
	for _, ph := range phases {
		s := sortedCopy(byPhase[ph])
		m["phase."+ph+"_p50_us"] = percentile(s, 0.5)
		m["phase."+ph+"_p99_us"] = tail(s, 0.99)
	}
	m["ray.get_unexplained_p50_us"] = 0
	if w.sequential() {
		m["ray.get_unexplained_p50_us"] = median(unexplainedGet(all, program))
	}
	return m
}

func sum(values []float64) float64 {
	var s float64
	for _, v := range values {
		s += v
	}
	return s
}

// decayRatio is the completion rate of the last quarter of the timed ops
// over that of the first quarter: 1 when throughput holds, below 1 when
// accumulated state slows the run down.
func decayRatio(spans []span, timedStart int64) float64 {
	var ends []int64
	for _, s := range spans {
		if s.kind == spanOp {
			ends = append(ends, s.end)
		}
	}
	q := len(ends) / 4
	if q == 0 {
		return 0
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	first := ends[q-1] - timedStart
	last := ends[len(ends)-1] - ends[len(ends)-1-q]
	return ratio(float64(first), float64(last))
}

// unexplainedGet returns, for each sequential op, the part of its ray.get
// span in microseconds that no program phase span covers: with one op in
// flight that is the wait for the result's commit and the subscriber's
// wake-up, which no phase records.
func unexplainedGet(spans []span, program []interval) []float64 {
	sort.Slice(program, func(i, j int) bool { return program[i].start < program[j].start })
	opStart := map[int32]int64{}
	for _, s := range spans {
		if s.kind == spanOp {
			opStart[s.op] = s.start
		}
	}
	var out []float64
	for _, s := range spans {
		if s.kind != spanGet {
			continue
		}
		from, ok := opStart[s.op]
		if !ok {
			continue
		}
		// This op's phases start after its submit; earlier ops' phases all
		// ended before it.
		lo := sort.Search(len(program), func(i int) bool { return program[i].start >= from })
		hi := lo
		for hi < len(program) && program[hi].start < s.end {
			hi++
		}
		out = append(out, float64((s.end-s.start)-covered(s.start, s.end, program[lo:hi]))/1e3)
	}
	return out
}
