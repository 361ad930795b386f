package bench

import (
	"fmt"
	"io"
)

// CompactionReport is the serial-vs-pipelined comparison tebis-bench
// writes to BENCH_compaction.json.
type CompactionReport struct {
	Records   uint64           `json:"records"`
	ValueSize int              `json:"value_size"`
	L0MaxKeys int              `json:"l0_max_keys"`
	Serial    EngineModeResult `json:"serial"`
	Pipelined EngineModeResult `json:"pipelined"`
}

// runCompaction compares the paper-faithful serial compactor (one
// worker, one frozen L0) against the staged scheduler (two workers,
// double-buffered L0) under an identical offered load.
//
// The in-memory device makes an unthrottled writer orders of magnitude
// faster than compaction, which no amount of buffering can hide — every
// configuration just runs at the compactor's speed. Real deployments
// (and the paper's YCSB clients) offer a bounded load with slack for
// compaction to overlap, so the comparison first calibrates the serial
// engine's raw throughput and then drives both engines at half of it,
// where stalls measure scheduling, not raw compaction speed.
func runCompaction(sc Scale, dir string, w io.Writer) error {
	calib, err := runEngineLoad(sc, engineLoad{mode: "calibrate", workers: 1, buffers: 1}, 0)
	if err != nil {
		return err
	}
	// Each mode reports its median writer-stall trial: single-core
	// scheduling noise can dominate one run's stall accounting.
	pairs, err := runAB(3, pacedRate(calib.KOpsPerSec), func(pipelined bool, opsPerSec float64) (EngineModeResult, error) {
		if pipelined {
			return runEngineLoad(sc, engineLoad{mode: "pipelined", workers: 2, buffers: 2}, opsPerSec)
		}
		return runEngineLoad(sc, engineLoad{mode: "serial", workers: 1, buffers: 1}, opsPerSec)
	})
	if err != nil {
		return err
	}
	stall := func(r EngineModeResult) float64 { return r.WriterStallMillis }
	report := CompactionReport{
		Records:   sc.Records,
		ValueSize: compactionValueSize,
		L0MaxKeys: sc.L0MaxKeys,
		Serial:    pairs.median(false, stall),
		Pipelined: pairs.median(true, stall),
	}

	fmt.Fprintf(w, "Compaction scheduler: serial vs pipelined (%d records, L0=%d keys)\n",
		sc.Records, sc.L0MaxKeys)
	fmt.Fprintf(w, "%-12s %10s %10s %10s %8s %10s %8s %8s\n",
		"Mode", "Kops/s", "p50 µs", "p99 µs", "Stalls", "Stall ms", "Jobs", "Overlap")
	for _, r := range []EngineModeResult{report.Serial, report.Pipelined} {
		fmt.Fprintf(w, "%-12s %10.1f %10.1f %10.1f %8d %10.1f %8d %7.0f%%\n",
			r.Mode, r.KOpsPerSec, r.P50PutMicros, r.P99PutMicros,
			r.WriterStalls, r.WriterStallMillis, r.Jobs, 100*r.OverlapFraction)
	}
	return writeReport(w, dir, ExpCompaction, report)
}
