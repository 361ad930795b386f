package bench

import (
	"fmt"
	"io"
)

// ObservabilityReport quantifies the hot-path cost of the obs layer on
// the compaction experiment so future PRs can't silently regress it.
type ObservabilityReport struct {
	Records   uint64 `json:"records"`
	ValueSize int    `json:"value_size"`
	L0MaxKeys int    `json:"l0_max_keys"`

	Off EngineModeResult `json:"off"`
	On  EngineModeResult `json:"on"`

	// OverheadNsPerOpPercent compares unpaced CPU ns/op (on vs off): the
	// raw hot-path tax of the nil checks, span records, shared stats
	// and the scraper.
	OverheadNsPerOpPercent float64 `json:"overhead_ns_per_op_percent"`
	// OverheadOfferedLoadPercent compares paced throughput at the same
	// offered load — the acceptance metric (must stay ≤ 5%).
	OverheadOfferedLoadPercent float64 `json:"overhead_offered_load_percent"`
}

func (r *ObservabilityReport) gates(string) []Gate {
	return []Gate{{Name: "overhead_offered_load_percent", Value: r.OverheadOfferedLoadPercent,
		Op: "<=", Bound: 5, Evidence: fmt.Sprintf("paced Kops/s: off %.1f, on %.1f",
			r.Off.PacedKOpsPerSec, r.On.PacedKOpsPerSec)}}
}

// runObservability measures the instrumentation tax on the compaction
// hot path: the engine A/B protocol with no observability versus the
// registry, tracer, traced puts and a continuous scraper attached.
func runObservability(sc Scale, dir string, w io.Writer) error {
	ab, err := runEngineAB(sc,
		engineLoad{mode: "off", workers: 2, buffers: 2},
		engineLoad{mode: "on", workers: 2, buffers: 2, instrumented: true})
	if err != nil {
		return err
	}
	off, on := ab.sides()
	report := ObservabilityReport{
		Records:                    sc.Records,
		ValueSize:                  compactionValueSize,
		L0MaxKeys:                  sc.L0MaxKeys,
		Off:                        off,
		On:                         on,
		OverheadNsPerOpPercent:     ab.unpaced.overhead(engineNsPerOp, false),
		OverheadOfferedLoadPercent: ab.paced.overhead(engineKops, true),
	}

	fmt.Fprintf(w, "Observability overhead on the compaction hot path (%d records, L0=%d keys)\n",
		sc.Records, sc.L0MaxKeys)
	fmt.Fprintf(w, "%-14s %10s %12s %12s %10s %8s\n",
		"Config", "CPU ns/op", "Kops/s", "paced Kop/s", "p99 µs", "spans")
	for _, r := range []EngineModeResult{off, on} {
		fmt.Fprintf(w, "%-14s %10.0f %12.1f %12.1f %10.1f %8d\n",
			r.Mode, r.NsPerOp, r.KOpsPerSec, r.PacedKOpsPerSec, r.P99PutMicros, r.TraceSpans)
	}
	fmt.Fprintf(w, "overhead: %.2f%% ns/op, %.2f%% offered-load throughput\n",
		report.OverheadNsPerOpPercent, report.OverheadOfferedLoadPercent)
	return writeReport(w, dir, ExpObservability, report)
}
