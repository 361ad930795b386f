package bench

import (
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"tebis/internal/client"
	"tebis/internal/lsm"
	"tebis/internal/metrics"
	"tebis/internal/obs"
	"tebis/internal/storage"
)

// This file is the paced bare-engine loader the compaction,
// observability and integrity experiments share: sc.Records sequential
// puts into one engine on an in-memory device, no cluster and no
// simulated network, so each comparison isolates one engine feature.

const compactionValueSize = 100

// engineLoad selects one bare-engine configuration.
type engineLoad struct {
	mode             string
	workers, buffers int // compaction workers and L0 buffers
	// framed wraps the device in storage.AsVerifying: every seal pays
	// the CRC32C trailer, every cold read a whole-segment verification.
	framed bool
	// instrumented attaches the full observability stack: a tracer,
	// the engine's stats in a live registry scraped every 10ms, and
	// request-traced puts at the client default sample rate.
	instrumented bool
	// readBack follows the load with a Get of every fourth key.
	readBack bool
}

// EngineModeResult is one bare-engine load: the configuration it ran
// and what it measured. The compaction, observability and integrity
// reports carry one per mode.
type EngineModeResult struct {
	Mode              string `json:"mode"`
	CompactionWorkers int    `json:"compaction_workers"`
	L0Buffers         int    `json:"l0_buffers"`
	Instrumented      bool   `json:"instrumented"`
	Framed            bool   `json:"framed"`
	// NsPerOp and GetNsPerOp are process CPU time per put (load plus
	// flush) and per read-back Get, so they charge the background
	// goroutines the feature starts but not CPU taken by other
	// processes. Throughputs are wall-clock.
	NsPerOp           float64 `json:"ns_per_op"`
	GetNsPerOp        float64 `json:"get_ns_per_op"`
	KOpsPerSec        float64 `json:"kops_per_sec"`
	OfferedKopsPerSec float64 `json:"offered_kops_per_sec"`
	PacedKOpsPerSec   float64 `json:"paced_kops_per_sec"`
	P50PutMicros      float64 `json:"p50_put_micros"`
	P99PutMicros      float64 `json:"p99_put_micros"`
	WriterStalls      uint64  `json:"writer_stalls"`
	WriterStallMillis float64 `json:"writer_stall_millis"`
	Jobs              uint64  `json:"jobs"`
	SegmentsShipped   uint64  `json:"segments_shipped"`
	SegmentsEarly     uint64  `json:"segments_shipped_early"`
	OverlapFraction   float64 `json:"overlap_fraction"`
	MergeMillis       float64 `json:"merge_millis"`
	BuildMillis       float64 `json:"build_millis"`
	ShipMillis        float64 `json:"ship_millis"`
	Scrapes           uint64  `json:"scrapes"`
	TraceSpans        int     `json:"trace_spans"`
}

// runEngineLoad loads sc.Records keys into a bare engine configured by
// cfg and returns its measurements.
//
// opsPerSec > 0 paces the writer at that offered load, like a YCSB
// target rate: arrivals are scheduled on a fixed clock and latency is
// measured from the scheduled arrival, so an engine stall shows up as
// queueing delay instead of being silently absorbed by a slower issue
// rate (coordinated omission). opsPerSec == 0 issues as fast as
// possible.
func runEngineLoad(sc Scale, cfg engineLoad, opsPerSec float64) (EngineModeResult, error) {
	res := EngineModeResult{
		Mode:              cfg.mode,
		CompactionWorkers: cfg.workers,
		L0Buffers:         cfg.buffers,
		Instrumented:      cfg.instrumented,
		Framed:            cfg.framed,
		OfferedKopsPerSec: opsPerSec / 1000,
	}
	mem, err := storage.NewMemDevice(64<<10, 0)
	if err != nil {
		return res, err
	}
	defer mem.Close()
	var dev storage.Device = mem
	if cfg.framed {
		dev = storage.AsVerifying(mem)
	}
	stats := &metrics.CompactionStats{}
	opt := lsm.Options{
		Device:            dev,
		NodeSize:          512,
		GrowthFactor:      4,
		L0MaxKeys:         sc.L0MaxKeys,
		MaxLevels:         7,
		Seed:              1,
		CompactionWorkers: cfg.workers,
		L0Buffers:         cfg.buffers,
		CompactionStats:   stats,
	}

	var tracer, nodeTr *obs.Tracer
	stopScrape := func() uint64 { return 0 }
	if cfg.instrumented {
		tracer = obs.NewTracer(0)
		nodeTr = tracer.Node("bench")
		opt.Trace = nodeTr
		reg := obs.NewRegistry()
		reg.RegisterCompaction(obs.Labels{"node": "bench"}, stats)
		reg.RegisterDevice(obs.Labels{"node": "bench"}, mem)
		stopScrape = sync.OnceValue(scrape(reg))
		defer stopScrape()
	}

	db, err := lsm.New(opt)
	if err != nil {
		return res, err
	}
	defer db.Close()

	val := make([]byte, compactionValueSize)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	var interval time.Duration
	if opsPerSec > 0 {
		interval = time.Duration(float64(time.Second) / opsPerSec)
	}
	traceEvery := uint64(math.Round(1 / client.DefaultTraceSampleRate))
	hist := metrics.NewHistogram()
	cpu0 := cpuTime()
	start := time.Now()
	next := start
	for i := uint64(0); i < sc.Records; i++ {
		key := []byte(fmt.Sprintf("user%012d", i))
		t0 := time.Now()
		if interval > 0 {
			next = next.Add(interval)
			waitUntil(next)
			t0 = next // latency counts from the scheduled arrival
		}
		if cfg.instrumented && i%traceEvery == 0 {
			rt := nodeTr.Request(i + 1)
			reqStart := time.Now()
			if err := db.PutTraced(key, val, rt); err != nil {
				return res, err
			}
			rt.Record(obs.Span{Cat: "request", Name: "put",
				Bytes: int64(len(key) + len(val)), Start: reqStart, Dur: time.Since(reqStart)})
		} else if err := db.Put(key, val); err != nil {
			return res, err
		}
		hist.Record(time.Since(t0))
	}
	if err := db.Flush(); err != nil {
		return res, err
	}
	elapsed := time.Since(start)
	res.NsPerOp = float64(cpuTime()-cpu0) / float64(sc.Records)
	res.Scrapes = stopScrape()
	if cfg.instrumented {
		res.TraceSpans = len(tracer.Snapshot())
	}

	// Read-back pass: cold segments, so a framed run re-verifies each
	// segment once before serving from it.
	if reads := sc.Records / 4; cfg.readBack && reads > 0 {
		stride := sc.Records / reads
		cpu0 := cpuTime()
		for i := uint64(0); i < reads; i++ {
			key := []byte(fmt.Sprintf("user%012d", i*stride))
			if _, _, err := db.Get(key); err != nil {
				return res, err
			}
		}
		res.GetNsPerOp = float64(cpuTime()-cpu0) / float64(reads)
	}

	snap := db.CompactionStats()
	res.KOpsPerSec = float64(sc.Records) / elapsed.Seconds() / 1000
	res.P50PutMicros = float64(hist.Percentile(50).Nanoseconds()) / 1e3
	res.P99PutMicros = float64(hist.Percentile(99).Nanoseconds()) / 1e3
	res.WriterStalls = snap.WriterStalls
	res.WriterStallMillis = float64(snap.WriterStallTime.Nanoseconds()) / 1e6
	res.Jobs = snap.Jobs
	res.SegmentsShipped = snap.SegmentsShipped
	res.SegmentsEarly = snap.SegmentsShippedEarly
	res.OverlapFraction = snap.OverlapFraction()
	res.MergeMillis = float64(snap.MergeTime.Nanoseconds()) / 1e6
	res.BuildMillis = float64(snap.BuildTime.Nanoseconds()) / 1e6
	res.ShipMillis = float64(snap.ShipTime.Nanoseconds()) / 1e6
	return res, nil
}

// scrape renders reg's Prometheus exposition every 10ms, like a
// Prometheus server with a very aggressive interval, so exposition-time
// snapshot costs are charged to the run. The returned stop ends the
// loop and reports how many scrapes it made.
func scrape(reg *obs.Registry) (stop func() uint64) {
	quit, done := make(chan struct{}), make(chan uint64)
	go func() {
		var n uint64
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				done <- n
				return
			case <-tick.C:
				_ = reg.WritePrometheus(io.Discard)
				n++
			}
		}
	}()
	return func() uint64 { close(quit); return <-done }
}

// engineAB is the feature-off vs feature-on protocol the observability
// and integrity experiments share: unpaced pairs for the CPU ns/op
// comparison, paced pairs at half the calibrated off rate for the
// offered-load comparison.
type engineAB struct {
	unpaced, paced abPairs[EngineModeResult]
}

// Trial counts. On a shared 2-core host one short trial's CPU cost
// swings by ±40% with what else the host runs, so single pairs are
// noise (per-pair ratios spread from -32% to +79% between their 10th
// and 90th percentiles). The ns/op comparison takes the median of
// fifteen pairs, so a spurious overhead needs eight bad pairs. Paced
// trials run twice as long and their throughput barely moves, so
// three pairs suffice.
const (
	engineUnpacedPairs = 15
	enginePacedPairs   = 3
)

func engineNsPerOp(r EngineModeResult) float64 { return r.NsPerOp }
func engineKops(r EngineModeResult) float64    { return r.KOpsPerSec }

func runEngineAB(sc Scale, off, on engineLoad) (engineAB, error) {
	trial := func(isOn bool, opsPerSec float64) (EngineModeResult, error) {
		if isOn {
			return runEngineLoad(sc, on, opsPerSec)
		}
		return runEngineLoad(sc, off, opsPerSec)
	}
	var ab engineAB
	calib, err := trial(false, 0)
	if err != nil {
		return ab, err
	}
	if ab.unpaced, err = runAB(engineUnpacedPairs, 0, trial); err != nil {
		return ab, err
	}
	ab.paced, err = runAB(enginePacedPairs, pacedRate(calib.KOpsPerSec), trial)
	return ab, err
}

// sides returns each side's median unpaced trial (by ns/op) with its
// median paced throughput filled in.
func (ab engineAB) sides() (off, on EngineModeResult) {
	off = ab.unpaced.median(false, engineNsPerOp)
	on = ab.unpaced.median(true, engineNsPerOp)
	off.PacedKOpsPerSec = ab.paced.median(false, engineKops).KOpsPerSec
	on.PacedKOpsPerSec = ab.paced.median(true, engineKops).KOpsPerSec
	return off, on
}
