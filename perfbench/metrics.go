package main

import (
	"fmt"
	"math"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; the package test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the cluster sees, reported by the
// untraced run of every workload.
var endToEnd = []metricDef{
	{"throughput_kops", "kops/s", "higher"},
	{"put_p50_us", "us", "lower"},
	{"put_p99_us", "us", "lower"},
	{"get_p50_us", "us", "lower"},
	{"get_p99_us", "us", "lower"},
	{"io_amp", "ratio", "lower"},
	{"net_amp", "ratio", "lower"},
	{"space_amp", "ratio", "lower"},
	{"model_kcycles_per_op", "Kcycles/op", "lower"},
	{"live_heap_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the traced run's metrics, one group per layer.
var perLayer = []metricDef{
	// lsm: writer stalls, the put path, compaction pipeline, reads.
	{"lsm.writer_stalls", "count", "lower"},
	{"lsm.writer_stall_ms", "ms", "lower"},
	{"lsm.apply_us_p50", "us", "lower"},
	{"lsm.apply_us_p99", "us", "lower"},
	{"lsm.put_ns", "ns/op", "lower"},
	{"lsm.put_allocs", "allocs/op", "lower"},
	{"lsm.compaction_jobs", "count", "lower"},
	{"lsm.merge_ms", "ms", "lower"},
	{"lsm.build_ms", "ms", "lower"},
	{"lsm.ship_ms", "ms", "lower"},
	{"lsm.ship_overlap", "ratio", "higher"},
	{"lsm.get_ns", "ns/op", "lower"},
	{"lsm.get_allocs", "allocs/op", "lower"},
	{"lsm.get_bytes", "B/op", "lower"},
	{"lsm.get_device_read_bytes", "B/op", "lower"},
	{"lsm.scan_ns", "ns/op", "lower"},
	{"lsm.scan_allocs", "allocs/op", "lower"},
	// memtable and vlog.
	{"memtable.insert_ns", "ns/op", "lower"},
	{"memtable.insert_allocs", "allocs/op", "lower"},
	{"memtable.get_ns", "ns/op", "lower"},
	{"vlog.append_ns", "ns/op", "lower"},
	{"vlog.append_allocs", "allocs/op", "lower"},
	{"vlog.get_ns", "ns/op", "lower"},
	{"vlog.get_allocs", "allocs/op", "lower"},
	// btree.
	{"btree.build_ns_per_key", "ns/key", "lower"},
	{"btree.get_ns", "ns/op", "lower"},
	{"btree.get_allocs", "allocs/op", "lower"},
	{"btree.get_bytes", "B/op", "lower"},
	{"btree.nodes_read_per_get", "nodes/op", "lower"},
	{"btree.rewrite_ns_per_segment", "ns/segment", "lower"},
	// replica: per-request log replication and index shipping.
	{"replica.ship_us_p50", "us", "lower"},
	{"replica.ship_us_p99", "us", "lower"},
	{"replica.ack_us_p50", "us", "lower"},
	{"replica.ack_us_p99", "us", "lower"},
	{"replica.ack_rtt_us_p99", "us", "lower"},
	{"replica.rewrite_ms", "ms", "lower"},
	{"replica.segments_shipped", "count", "lower"},
	{"replica.retries", "count", "lower"},
	{"replica.evictions", "count", "lower"},
	// shipcodec.
	{"shipcodec.raw_bytes", "bytes", "lower"},
	{"shipcodec.wire_bytes", "bytes", "lower"},
	{"shipcodec.ratio", "ratio", "higher"},
	{"shipcodec.delta_fallbacks", "count", "lower"},
	{"shipcodec.encode_ns_per_kb", "ns/KiB", "lower"},
	{"shipcodec.decode_ns_per_kb", "ns/KiB", "lower"},
	// client, wire, rdma, server.
	{"client.queue_us_p50", "us", "lower"},
	{"client.queue_us_p99", "us", "lower"},
	{"client.retries", "count", "lower"},
	{"wire.encode_ns", "ns/op", "lower"},
	{"wire.decode_ns", "ns/op", "lower"},
	{"wire.allocs_per_msg", "allocs/op", "lower"},
	{"rdma.write_ns", "ns/op", "lower"},
	{"rdma.bytes_per_op", "B/op", "lower"},
	{"server.dispatch_us_p50", "us", "lower"},
	{"server.dispatch_us_p99", "us", "lower"},
	// storage.
	{"storage.read_bytes_per_op", "B/op", "lower"},
	{"storage.write_bytes_per_op", "B/op", "lower"},
	{"storage.segments_live", "count", "lower"},
	// metrics: the Table 3 cycle model, per op.
	{"cycles.insert_l0", "cycles/op", "lower"},
	{"cycles.log_replication", "cycles/op", "lower"},
	{"cycles.compaction", "cycles/op", "lower"},
	{"cycles.send_index", "cycles/op", "lower"},
	{"cycles.rewrite_index", "cycles/op", "lower"},
	{"cycles.reply", "cycles/op", "lower"},
	{"cycles.other", "cycles/op", "lower"},
	// admission (off: both stay 0).
	{"admission.delayed", "count", "lower"},
	{"admission.shed", "count", "lower"},
	// process: the Go runtime under the whole cluster.
	{"process.allocs_per_op", "allocs/op", "lower"},
	{"process.alloc_bytes_per_op", "B/op", "lower"},
	{"process.gc_cycles", "count", "lower"},
	{"process.gc_pause_ms", "ms", "lower"},
	// cluster, master and zklite bring-up.
	{"cluster.new_ms", "ms", "lower"},
	{"cluster.preload_s", "s", "lower"},
	{"cluster.wait_idle_ms", "ms", "lower"},
	// the request trace itself.
	{"request.residual_us_p50", "us", "lower"},
	{"self.bench_us_p50", "us", "lower"},
	{"self.dispatch_us_p50", "us", "lower"},
	{"self.apply_us_p50", "us", "lower"},
	{"self.ship_us_p50", "us", "lower"},
	{"self.ack_us_p50", "us", "lower"},
	{"trace.sampled_ops", "count", "higher"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.dropped_spans", "count", "lower"},
	// outcome of the checks.
	{"error_rate", "ratio", "lower"},
}

// outcome accumulates one run's counts, failed checks and metrics.
type outcome struct {
	attempted, failed uint64
	problems          []string
	values            map[string]float64
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}}
}

// absorb adds the issuers' op counts and failures.
func (out *outcome) absorb(iss []*issuer) {
	for _, is := range iss {
		out.attempted += is.ops
		out.failed += is.failed
		out.problems = append(out.problems, is.problems...)
		is.ops, is.failed, is.problems = 0, 0, nil
	}
}

// result renders the metrics the run kind reports. A metric that was
// not measured, or is not a finite number, fails the run.
func (out *outcome) result(trace bool) result {
	defs := endToEnd
	if trace {
		defs = perLayer
		out.values["error_rate"] = ratio(float64(out.failed), float64(out.attempted))
	}
	r := result{
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			out.problems = append(out.problems, fmt.Sprintf("metric %s not measured", d.name))
			continue
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if r.Attempted == 0 {
		out.problems = append(out.problems, "no operation attempted")
		r.Attempted = 1
		r.Failed = 1
	}
	r.Correct = out.failed == 0 && len(out.problems) == 0
	return r
}
