package bench

import (
	"fmt"
	"io"
)

// IntegrityReport quantifies the cost of the crash-consistency layer
// (DESIGN.md §7) so future PRs can't silently regress it.
type IntegrityReport struct {
	Records   uint64 `json:"records"`
	ValueSize int    `json:"value_size"`
	L0MaxKeys int    `json:"l0_max_keys"`

	Raw    EngineModeResult `json:"raw"`
	Framed EngineModeResult `json:"framed"`

	// OverheadNsPerOpPercent compares unpaced put CPU ns/op (framed vs
	// raw): the raw hot-path tax of CRC32C framing on seals.
	OverheadNsPerOpPercent float64 `json:"overhead_ns_per_op_percent"`
	// OverheadGetNsPerOpPercent compares the read-back path, where cold
	// reads verify whole segments before the first byte is served.
	OverheadGetNsPerOpPercent float64 `json:"overhead_get_ns_per_op_percent"`
	// OverheadOfferedLoadPercent compares paced throughput at the same
	// offered load — the acceptance metric (must stay ≤ 5%).
	OverheadOfferedLoadPercent float64 `json:"overhead_offered_load_percent"`
}

// runIntegrity measures the checksum tax on the engine hot paths: the
// engine A/B protocol on a raw device versus through
// storage.AsVerifying, each followed by a cold read-back pass.
func runIntegrity(sc Scale, dir string, w io.Writer) error {
	ab, err := runEngineAB(sc,
		engineLoad{mode: "raw", workers: 2, buffers: 2, readBack: true},
		engineLoad{mode: "framed", workers: 2, buffers: 2, readBack: true, framed: true})
	if err != nil {
		return err
	}
	raw, framed := ab.sides()
	report := IntegrityReport{
		Records:                    sc.Records,
		ValueSize:                  compactionValueSize,
		L0MaxKeys:                  sc.L0MaxKeys,
		Raw:                        raw,
		Framed:                     framed,
		OverheadNsPerOpPercent:     ab.unpaced.overhead(engineNsPerOp, false),
		OverheadGetNsPerOpPercent:  ab.unpaced.overhead(func(r EngineModeResult) float64 { return r.GetNsPerOp }, false),
		OverheadOfferedLoadPercent: ab.paced.overhead(engineKops, true),
	}

	fmt.Fprintf(w, "Checksum-frame overhead on the engine hot paths (%d records, L0=%d keys)\n",
		sc.Records, sc.L0MaxKeys)
	fmt.Fprintf(w, "%-14s %10s %12s %12s %10s %10s\n",
		"Config", "CPU ns/op", "Kops/s", "paced Kop/s", "p99 µs", "get ns/op")
	for _, r := range []EngineModeResult{raw, framed} {
		fmt.Fprintf(w, "%-14s %10.0f %12.1f %12.1f %10.1f %10.0f\n",
			r.Mode, r.NsPerOp, r.KOpsPerSec, r.PacedKOpsPerSec, r.P99PutMicros, r.GetNsPerOp)
	}
	fmt.Fprintf(w, "overhead: %.2f%% ns/op, %.2f%% get ns/op, %.2f%% offered-load throughput\n",
		report.OverheadNsPerOpPercent, report.OverheadGetNsPerOpPercent,
		report.OverheadOfferedLoadPercent)
	return writeReport(w, dir, ExpIntegrity, report)
}
