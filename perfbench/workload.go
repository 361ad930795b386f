package main

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"time"

	"tebis/internal/client"
	"tebis/internal/cluster"
	"tebis/internal/lsm"
	"tebis/internal/obs"
	"tebis/internal/replica"
	"tebis/internal/ycsb"
)

// workload is one benchmark traffic mix.
type workload struct {
	name string
	// phase is the measured YCSB phase.
	phase ycsb.Workload
	// preload says the phase runs over a store loaded during set-up.
	preload bool
}

var workloads = map[string]workload{
	"load_a": {name: "load_a", phase: ycsb.LoadA},
	"run_a":  {name: "run_a", phase: ycsb.RunA, preload: true},
	"run_c":  {name: "run_c", phase: ycsb.RunC, preload: true},
}

// The repository's bench storage layout: 64 KiB segments and 512-byte
// B+-tree nodes (the paper's 2 MiB and 4 KiB scaled with the dataset).
const (
	segmentSize = 64 << 10
	nodeSize    = 512
)

const (
	// issuers is the closed-loop client count, one client.Client each:
	// the paper drives its servers from two client machines.
	issuers = 2
	// sampleEvery traces one client op in this many in the traced run.
	sampleEvery = 32
)

// mix is the YCSB SD size mix: 60/20/20 % of 33/123/1023-byte records.
var mix = ycsb.MixSD

// sutConfig is the system under test, the same for every workload:
// three servers, eight regions with one backup each, Send-Index with
// the default (compressed, delta) ship codec, GC and admission off,
// default workers and spin threads, and the repository's bench LSM
// template.
func sutConfig(tr *obs.Tracer) cluster.Config {
	return cluster.Config{
		Servers:     3,
		Regions:     8,
		Replicas:    1,
		Mode:        replica.SendIndex,
		SegmentSize: segmentSize,
		LSM:         lsmTemplate(),
		Trace:       tr,
	}
}

// lsmTemplate is the per-region engine template of the repository's
// bench defaults, shared by the cluster and the layer pass's engine.
func lsmTemplate() lsm.Options {
	return lsm.Options{
		NodeSize:     nodeSize,
		GrowthFactor: 4,
		L0MaxKeys:    1024,
		MaxLevels:    7,
	}
}

// newClient connects one closed-loop client to every server. A non-nil
// tr traces one op in sampleEvery into it.
func newClient(c *cluster.Cluster, name string, tr *obs.Tracer) (*client.Client, error) {
	rmap, err := c.Map()
	if err != nil {
		return nil, err
	}
	servers := make(map[string]client.ServerHandle, len(c.Nodes))
	for n, node := range c.Nodes {
		servers[n] = node.Server
	}
	cfg := client.Config{
		Name:    name,
		Servers: servers,
		Map:     rmap,
		Refresh: c.Map,
		Stages:  c.Stages(),
	}
	if tr != nil {
		cfg.Trace = tr
		cfg.TraceSampleRate = 1.0 / sampleEvery
	}
	return client.New(cfg)
}

// clockEpoch anchors the benchmark's span times: a start is the
// monotonic nanoseconds since clockEpoch. The wall clock is not used to
// order spans; on a virtual machine its reading can disagree with the
// monotonic clock's by microseconds within one time.Now.
var clockEpoch = time.Now()

// sinceEpoch places t on the benchmark's monotonic time axis.
func sinceEpoch(t time.Time) int64 { return int64(t.Sub(clockEpoch)) }

// opSpan is the benchmark's span around one client call: its start
// (nanoseconds since clockEpoch) and duration, and the wall-clock
// readings at both ends for placing program spans stamped from the
// wall clock.
type opSpan struct {
	get                bool
	start, dur         int64
	wallStart, wallEnd int64
}

func (s opSpan) end() int64 { return s.start + s.dur }

// issuer is one closed-loop client: it sends its next op only after the
// previous reply, times every call, and checks every read.
type issuer struct {
	name   string
	cl     *client.Client
	oracle *ycsb.Generator
	mutate func(rec uint64, want []byte) []byte

	// record says whether the current phase keeps a span per call.
	record    bool
	spans     []opSpan
	ops       uint64
	failed    uint64
	userBytes uint64
	unacked   map[uint64]bool
	problems  []string
}

func newIssuer(name string, cl *client.Client, o options) *issuer {
	return &issuer{
		name:    name,
		cl:      cl,
		oracle:  ycsb.NewGenerator(ycsb.Config{Workload: ycsb.LoadA, Mix: mix}),
		mutate:  o.mutateExpected,
		unacked: map[uint64]bool{},
	}
}

// recordOf parses the record number ycsb.Key encodes in bytes 8-24.
func recordOf(key []byte) (uint64, error) {
	if len(key) != ycsb.KeySize {
		return 0, fmt.Errorf("key of %d bytes", len(key))
	}
	return strconv.ParseUint(string(key[8:24]), 10, 64)
}

// expected returns the generator's value for record rec.
func (is *issuer) expected(rec uint64) []byte {
	is.oracle.SetLoadRange(rec, rec+1)
	op, _ := is.oracle.Next()
	if is.mutate != nil {
		return is.mutate(rec, append([]byte(nil), op.Value...))
	}
	return op.Value
}

func (is *issuer) problem(format string, args ...any) {
	is.failed++
	if len(is.problems) < 5 {
		is.problems = append(is.problems, fmt.Sprintf("%s: ", is.name)+fmt.Sprintf(format, args...))
	}
}

// do issues one op, times it, and checks its outcome.
func (is *issuer) do(op ycsb.Op) {
	var (
		val   []byte
		found bool
		err   error
	)
	get := op.Kind == ycsb.OpRead
	start := time.Now()
	if get {
		val, found, err = is.cl.Get(op.Key)
	} else {
		err = is.cl.Put(op.Key, op.Value)
	}
	end := time.Now()
	is.ops++
	if is.record {
		is.spans = append(is.spans, opSpan{
			get: get, start: sinceEpoch(start), dur: int64(end.Sub(start)),
			wallStart: start.UnixNano(), wallEnd: end.UnixNano(),
		})
	}
	rec, perr := recordOf(op.Key)
	switch {
	case perr != nil:
		is.problem("unparsable key %q: %v", op.Key, perr)
	case err != nil:
		if !get {
			is.unacked[rec] = true
		}
		is.problem("%v record %d: %v", op.Kind, rec, err)
	case get && !found:
		is.problem("record %d not found", rec)
	case get && !bytes.Equal(val, is.expected(rec)):
		is.problem("record %d read %d bytes that differ from the generator's value", rec, len(val))
	default:
		if get {
			is.userBytes += uint64(len(op.Key) + len(val))
		} else {
			is.userBytes += uint64(len(op.Key) + len(op.Value))
		}
	}
}

// runPhase drives every issuer through its op stream in parallel until
// the stream ends or the deadline (when non-zero) passes, and returns
// the phase's wall time.
func runPhase(iss []*issuer, streams []*ycsb.Generator, dur time.Duration) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	var deadline time.Time
	if dur > 0 {
		deadline = start.Add(dur)
	}
	for i, is := range iss {
		g := streams[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				op, ok := g.Next()
				if !ok {
					return
				}
				is.do(op)
				if !deadline.IsZero() && time.Now().After(deadline) {
					return
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// shard returns part i of parts of records [base, base+n).
func shard(i, parts int, base, n uint64) (from, to uint64) {
	per := n / uint64(parts)
	from = base + uint64(i)*per
	to = from + per
	if i == parts-1 {
		to = base + n
	}
	return from, to
}

// loadStreams shards records [base, base+n) across the issuers.
func loadStreams(iss []*issuer, base, n uint64) []*ycsb.Generator {
	out := make([]*ycsb.Generator, len(iss))
	for i := range iss {
		from, to := shard(i, len(iss), base, n)
		g := ycsb.NewGenerator(ycsb.Config{Workload: ycsb.LoadA, Mix: mix})
		g.SetLoadRange(from, to)
		out[i] = g
	}
	return out
}

// runStreams builds each issuer's Run-phase generator from the seed.
func runStreams(iss []*issuer, w workload, records uint64, seed int64) []*ycsb.Generator {
	out := make([]*ycsb.Generator, len(iss))
	for i := range iss {
		out[i] = ycsb.NewGenerator(ycsb.Config{
			Workload: w.phase,
			Records:  records,
			Mix:      mix,
			Seed:     seed*1000 + int64(i),
		})
	}
	return out
}

// readBack reads every acknowledged record of [base, base+n) back through
// the issuers (each its own shard) and checks it, timing every get.
func readBack(iss []*issuer, base, n uint64) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for i, is := range iss {
		from, to := shard(i, len(iss), base, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rec := from; rec < to; rec++ {
				if is.unacked[rec] {
					continue
				}
				is.do(ycsb.Op{Kind: ycsb.OpRead, Key: ycsb.Key(rec)})
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// loadBase maps the seed to the first record number load_a inserts, so
// each seed loads a different key set.
func loadBase(seed int64) uint64 {
	const seeds = 1_000_000
	return uint64((seed%seeds+seeds)%seeds) * 10_000_000
}
