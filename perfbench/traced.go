package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"tebis/internal/metrics"
	"tebis/internal/obs"
)

const (
	// traceCap and traceBytes size the traced run's span ring so that a
	// full phase of sampled requests and compaction stages fits; spans
	// it still evicts are reported as trace.dropped_spans.
	traceCap   = 1 << 17
	traceBytes = 48 << 20
	// containSlack is the tolerance of the span containment check.
	containSlack = time.Microsecond
)

// runTraced is the per-layer run. It measures an untraced and a traced
// phase on the same workload — their throughput ratio is the tracing
// overhead — reads the cluster's counters, stage set and span ring
// around the traced phase, then runs the layer pass and writes every
// span out.
func runTraced(o options, w workload) (*outcome, error) {
	out := newOutcome()
	v := out.values
	tr := obs.NewTracerBytes(traceCap, traceBytes)
	var (
		f            *fleet
		untracedOps  uint64
		untracedTime time.Duration
		traced       []*issuer
		pT           phase
		spans        []obs.Span
		err          error
		base         = loadBase(o.seed)
	)
	if !w.preload {
		// load_a: an untraced round on each side of the traced one, each
		// into a fresh cluster.
		load := func(iss []*issuer) func() time.Duration {
			return func() time.Duration { return runPhase(iss, loadStreams(iss, base, o.records), 0) }
		}
		untraced := func() error {
			fu, iss, _, err := timedOpen(o, nil)
			if err != nil {
				return err
			}
			defer fu.close(iss)
			pU, err := measure(fu, iss, load(iss))
			if err != nil {
				return err
			}
			untracedOps += pU.ops
			untracedTime += pU.elapsed
			readBack(iss, base, o.records)
			out.absorb(iss)
			return nil
		}
		if err := untraced(); err != nil {
			return nil, err
		}
		runtime.GC()
		if f, err = openFleet(tr); err != nil {
			return nil, err
		}
		v["cluster.new_ms"], v["cluster.preload_s"], v["cluster.wait_idle_ms"] = f.newMs, 0, 0
		if traced, err = f.connect(o, true); err != nil {
			return nil, err
		}
		startTraced(f, traced)
		if pT, err = measure(f, traced, load(traced)); err != nil {
			return nil, err
		}
		spans = readTraced(v, f, pT, traced, out)
		readBack(traced, base, o.records)
		out.absorb(traced)
		f.close(traced)
		if err := untraced(); err != nil {
			return nil, err
		}
	} else {
		// run_a, run_c: one preloaded cluster; a quarter of the time
		// untraced, half traced, a quarter untraced.
		one := o
		one.setups = 1
		pf, iss, _, _, err := preloaded(one, tr, out)
		if err != nil {
			return nil, err
		}
		f = pf.fleet
		v["cluster.new_ms"], v["cluster.preload_s"], v["cluster.wait_idle_ms"] = pf.newMs, pf.preloadS, pf.drainMs
		untraced := func() {
			ops0, _ := issuerCounts(iss)
			untracedTime += runPhase(iss, runStreams(iss, w, o.records, o.seed), seconds(o)/4)
			ops1, _ := issuerCounts(iss)
			untracedOps += ops1 - ops0
		}
		untraced()
		if traced, err = f.connect(o, true); err != nil {
			return nil, err
		}
		startTraced(f, traced)
		if pT, err = measure(f, traced, func() time.Duration {
			return runPhase(traced, runStreams(traced, w, o.records, o.seed), seconds(o)/2)
		}); err != nil {
			return nil, err
		}
		spans = readTraced(v, f, pT, traced, out)
		untraced()
		out.absorb(iss)
		out.absorb(traced)
		f.close(iss, traced)
	}

	untracedTput := float64(untracedOps) / untracedTime.Seconds()
	v["trace.overhead_pct"] = (1 - ratio(float64(pT.ops)/pT.elapsed.Seconds(), untracedTput)) * 100
	out.problems = append(out.problems, requestTree(v, spans, traced)...)

	runtime.GC()
	lp, err := runLayerPass(layerInputsFor(o, w))
	if err != nil {
		return nil, err
	}
	for k, x := range lp.values {
		v[k] = x
	}
	out.problems = append(out.problems, lp.problems...)
	if err := writeSpans(o, w, spans, traced, lp.spans); err != nil {
		return nil, err
	}
	return out, nil
}

// readTraced reads the cluster's counters, stage set and span ring
// right after the traced phase p into v, and returns the ring's spans.
func readTraced(v map[string]float64, f *fleet, p phase, traced []*issuer, out *outcome) []obs.Span {
	out.problems = append(out.problems, healthProblems(p.before, p.after)...)
	counterDeltas(v, p)
	stageMetrics(v, f.c.Stages())
	v["replica.ack_rtt_us_p99"] = p.after.max("tebis_replica_ack_seconds", `quantile="0.99"`) * 1e6
	v["storage.segments_live"] = float64(f.liveSegments())
	var retries uint64
	for _, is := range traced {
		retries += is.cl.StaleRetries() + is.cl.OverloadRetries()
	}
	v["client.retries"] = float64(retries)
	spans := f.tr.Snapshot()
	v["trace.dropped_spans"] = float64(f.tr.Dropped())
	var rewrite time.Duration
	for _, s := range spans {
		if s.Name == "rewrite" {
			rewrite += s.Dur
		}
	}
	v["replica.rewrite_ms"] = float64(rewrite) / float64(time.Millisecond)
	return spans
}

// startTraced readies the traced phase: its issuers keep latencies and
// spans, and the span ring and stage set start empty.
func startTraced(f *fleet, iss []*issuer) {
	for _, is := range iss {
		is.record = true
	}
	f.tr.Reset()
	f.c.Stages().Reset()
}

// counterDeltas turns the exported counters around the traced phase
// into per-layer metrics.
func counterDeltas(v map[string]float64, p phase) {
	b, a := p.before, p.after
	ops := float64(p.ops)
	v["lsm.writer_stalls"] = delta(b, a, "tebis_writer_stalls_total")
	v["lsm.writer_stall_ms"] = delta(b, a, "tebis_writer_stall_seconds_total") * 1e3
	v["lsm.compaction_jobs"] = delta(b, a, "tebis_compaction_jobs_total")
	v["lsm.merge_ms"] = delta(b, a, "tebis_compaction_stage_seconds_total", `stage="merge"`) * 1e3
	v["lsm.build_ms"] = delta(b, a, "tebis_compaction_stage_seconds_total", `stage="build"`) * 1e3
	v["lsm.ship_ms"] = delta(b, a, "tebis_compaction_stage_seconds_total", `stage="ship"`) * 1e3
	v["lsm.ship_overlap"] = ratio(delta(b, a, "tebis_compaction_segments_shipped_total", `early="true"`),
		delta(b, a, "tebis_compaction_segments_shipped_total"))
	v["replica.segments_shipped"] = delta(b, a, "tebis_ship_segments_total")
	v["replica.retries"] = delta(b, a, "tebis_replication_retries_total")
	v["replica.evictions"] = delta(b, a, "tebis_backup_evictions_total")
	raw, wire := delta(b, a, "tebis_ship_raw_bytes_total"), delta(b, a, "tebis_ship_wire_bytes_total")
	v["shipcodec.raw_bytes"], v["shipcodec.wire_bytes"] = raw, wire
	v["shipcodec.ratio"] = ratio(raw, wire)
	v["shipcodec.delta_fallbacks"] = delta(b, a, "tebis_ship_delta_fallbacks_total")
	v["admission.delayed"] = delta(b, a, "tebis_admission_delayed_total")
	v["admission.shed"] = delta(b, a, "tebis_admission_shed_total")
	v["storage.read_bytes_per_op"] = ratio(float64(a.tot.DeviceReadBytes-b.tot.DeviceReadBytes), ops)
	v["storage.write_bytes_per_op"] = ratio(float64(a.tot.DeviceWriteBytes-b.tot.DeviceWriteBytes), ops)
	cycleNames := map[metrics.Component]string{
		metrics.CompInsertL0:       "cycles.insert_l0",
		metrics.CompLogReplication: "cycles.log_replication",
		metrics.CompCompaction:     "cycles.compaction",
		metrics.CompSendIndex:      "cycles.send_index",
		metrics.CompRewriteIndex:   "cycles.rewrite_index",
		metrics.CompReply:          "cycles.reply",
		metrics.CompOther:          "cycles.other",
	}
	for comp, name := range cycleNames {
		v[name] = ratio(float64(a.tot.Cycles[comp]-b.tot.Cycles[comp]), ops)
	}
	v["process.allocs_per_op"] = ratio(float64(a.mem.Mallocs-b.mem.Mallocs), ops)
	v["process.alloc_bytes_per_op"] = ratio(float64(a.mem.TotalAlloc-b.mem.TotalAlloc), ops)
	v["process.gc_cycles"] = float64(a.mem.NumGC - b.mem.NumGC)
	v["process.gc_pause_ms"] = float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs) / 1e6
}

// stageMetrics reads the p50 and p99 of every request stage the sampled
// ops recorded; a stage the workload never runs (apply on run_c) reads 0.
func stageMetrics(v map[string]float64, stages *metrics.StageSet) {
	names := map[string]string{
		metrics.StageClientQueue: "client.queue_us",
		metrics.StageDispatch:    "server.dispatch_us",
		metrics.StageApply:       "lsm.apply_us",
		metrics.StageShip:        "replica.ship_us",
		metrics.StageAck:         "replica.ack_us",
	}
	for _, name := range names {
		v[name+"_p50"], v[name+"_p99"] = 0, 0
	}
	for _, s := range stages.Snapshot() {
		name, ok := names[s.Stage]
		if !ok || s.Count == 0 {
			continue
		}
		for i, q := range metrics.StageQuantiles {
			switch q {
			case 50:
				v[name+"_p50"] = float64(s.Percentiles[i]) / 1e3
			case 99:
				v[name+"_p99"] = float64(s.Percentiles[i]) / 1e3
			}
		}
	}
}

// interval is one span in nanoseconds since clockEpoch.
type interval struct {
	name       string
	start, end int64
}

// requestTree places every sampled request's spans under the benchmark
// span of the client call that caused them, checks that each lies
// inside it, and reports self times: a span's duration minus the part
// its child spans cover. The program's client span's self time is the
// request time the stage spans leave unexplained.
func requestTree(v map[string]float64, spans []obs.Span, iss []*issuer) []string {
	byClient := map[string]*issuer{}
	for _, is := range iss {
		byClient[is.name] = is
	}
	byReq := map[uint64][]obs.Span{}
	for _, s := range spans {
		if s.Cat == "request" && s.Req != 0 {
			byReq[s.Req] = append(byReq[s.Req], s)
		}
	}
	type callKey struct {
		is  *issuer
		idx int
	}
	calls := map[callKey][]interval{}
	var problems []string
	violations := 0
	for req, group := range byReq {
		rootIdx := -1
		for i := range group {
			if byClient[group[i].Node] != nil {
				rootIdx = i
			}
		}
		if rootIdx < 0 {
			// The ring evicted the client span; nothing to anchor.
			continue
		}
		root := group[rootIdx]
		is := byClient[root.Node]
		rs := sinceEpoch(root.Start)
		idx := sort.Search(len(is.spans), func(i int) bool { return is.spans[i].start > rs }) - 1
		if idx < 0 {
			violations++
			continue
		}
		call := is.spans[idx]
		cs, ce := call.start, call.end()
		k := callKey{is, idx}
		for i, s := range group {
			ss, inside := placeSpan(s, call)
			se := ss + int64(s.Dur)
			if !inside {
				violations++
				if len(problems) < 3 {
					problems = append(problems, fmt.Sprintf("trace %d: %s span [%d,%d] outside its client call [%d,%d]",
						req, s.Name, ss, se, cs, ce))
				}
			}
			name := s.Name
			if i == rootIdx {
				name = "client"
			}
			// Clipped to the call, so a span the check just reported
			// still nests under it.
			calls[k] = append(calls[k], interval{name, max(ss, cs), min(se, ce)})
		}
	}
	if violations > 0 {
		problems = append(problems, fmt.Sprintf("%d sampled-request spans lie outside their client call", violations))
	}
	self := map[string][]int64{}
	for k, ivs := range calls {
		call := k.is.spans[k.idx]
		root := interval{"bench", call.start, call.end()}
		for name, d := range selfTimes(append([]interval{root}, ivs...)) {
			self[name] = append(self[name], d...)
		}
	}
	p50 := func(name string) float64 {
		xs := sortedCopy(self[name])
		if len(xs) == 0 {
			return 0
		}
		return percentile(xs, 50) / 1e3
	}
	v["request.residual_us_p50"] = p50("client")
	for _, name := range []string{"bench", "dispatch", "apply", "ship", "ack"} {
		v["self."+name+"_us_p50"] = p50(name)
	}
	v["trace.sampled_ops"] = float64(len(calls))
	return problems
}

// placeSpan puts a program span on the benchmark's monotonic time axis
// and reports whether it lies inside call, comparing each span on its
// own clock. Most spans carry a monotonic reading. The server's dispatch
// span starts at the client's wall-clock send time and is timed on the
// wall clock, so it is checked against the call's wall-clock readings
// and placed by its wall-clock offset from the call's start.
func placeSpan(s obs.Span, call opSpan) (start int64, inside bool) {
	slack := int64(containSlack)
	if s.Start != s.Start.Round(0) { // has a monotonic reading
		start = sinceEpoch(s.Start)
		return start, start >= call.start-slack && start+int64(s.Dur) <= call.end()+slack
	}
	wall := s.Start.UnixNano()
	inside = wall >= call.wallStart-slack && wall+int64(s.Dur) <= call.wallEnd+slack
	return call.start + wall - call.wallStart, inside
}

// selfTimes nests the intervals by containment (each under the
// innermost interval holding it) and returns every interval's duration
// minus the union of its children, keyed by name.
func selfTimes(ivs []interval) map[string][]int64 {
	sort.SliceStable(ivs, func(i, j int) bool {
		if ivs[i].start != ivs[j].start {
			return ivs[i].start < ivs[j].start
		}
		return ivs[i].end > ivs[j].end
	})
	children := make([][]interval, len(ivs))
	var stack []int
	for i, iv := range ivs {
		for len(stack) > 0 && ivs[stack[len(stack)-1]].end < iv.end {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			children[p] = append(children[p], iv)
		}
		stack = append(stack, i)
	}
	out := map[string][]int64{}
	for i, iv := range ivs {
		covered, reach := int64(0), iv.start
		for _, c := range children[i] {
			s, e := max(c.start, reach), min(c.end, iv.end)
			if e > s {
				covered += e - s
				reach = e
			}
		}
		out[iv.name] = append(out[iv.name], iv.end-iv.start-covered)
	}
	return out
}

// writeSpans writes every span of the traced run — the benchmark's
// client-call and layer-pass spans and the program's span ring — as CSV
// to <spansDir>/<workload>.csv. start_ns is nanoseconds since the
// benchmark started on the clock the clock column names: the monotonic
// clock, or the wall clock for spans stamped from it alone (the two can
// drift apart by milliseconds over a run on a virtual machine).
func writeSpans(o options, w workload, ring []obs.Span, iss []*issuer, layer []layerSpan) error {
	if err := os.MkdirAll(o.spansDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.spansDir, w.name+".csv")
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(file)
	fmt.Fprintln(bw, "source,node,cat,name,req,job,backup,clock,start_ns,dur_ns,calls")
	for _, is := range iss {
		for _, s := range is.spans {
			name := "put"
			if s.get {
				name = "get"
			}
			fmt.Fprintf(bw, "bench,%s,client,%s,,,,mono,%d,%d,1\n", is.name, name, s.start, s.dur)
		}
	}
	for _, s := range ring {
		clock := "mono"
		if s.Start == s.Start.Round(0) {
			clock = "wall"
		}
		fmt.Fprintf(bw, "program,%s,%s,%s,%s,%s,%s,%s,%d,%d,1\n", s.Node, s.Cat, s.Name,
			optUint(s.Req), optUint(s.JobID), s.Backup, clock, sinceEpoch(s.Start), int64(s.Dur))
	}
	for _, s := range layer {
		fmt.Fprintf(bw, "bench,,layer,%s,,,,mono,%d,%d,%d\n", s.name, sinceEpoch(s.start), int64(s.dur), s.calls)
	}
	if err := bw.Flush(); err != nil {
		file.Close()
		return err
	}
	if err := file.Close(); err != nil {
		return err
	}
	fmt.Printf("perfbench: wrote %s\n", path)
	return nil
}

func optUint(x uint64) string {
	if x == 0 {
		return ""
	}
	return strconv.FormatUint(x, 10)
}
