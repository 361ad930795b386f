// Command tebis-server serves the Tebis data plane over a line-oriented
// TCP front end. It is a thin adapter over server.Server: the engine
// runs on a region server named primary, backed by a file device, and
// every line-protocol command becomes one call on a single
// client.Client shared by all connections. -replica adds a second
// in-process region server, backup0 on a memory device, holding the
// region's Send-Index backup, so the full merge → build → ship →
// rewrite pipeline is observable from this binary alone.
//
// Usage:
//
//	tebis-server [-addr :7625] [-data /tmp/tebis.img] [-segment 2097152]
//	             [-metrics 127.0.0.1:7626] [-replica] [-fsck]
//	             [-workers 8] [-task-threshold 64] [-queue-depth 256]
//	             [-admission] [-trace-sample 0.0078125]
//
// Every sealed segment is written with a CRC32C frame trailer; -fsck
// re-verifies an existing image read-only and exits (cmd/tebis-fsck is
// the standalone version with a -recover mode).
//
// The worker pool, its dispatch rule, admission control and online GC
// all live in internal/server (DESIGN.md §11, §12); the flags here only
// configure them. -workers, -task-threshold and -queue-depth size the
// primary's worker pool. With -admission (default on), a signal-driven
// controller adapts the wake-up threshold to queue wait and sheds
// mutations under overload; the client backs off and retries, and a
// mutation still shed on its last retry answers "ERR overloaded ...".
// Reads are never refused. -admission=false pins the fixed knob. A
// -trace-sample fraction of commands (default 1/128) is decomposed into
// tebis_op_stage_seconds stage latencies with exemplar trace IDs
// resolvable on /debug/trace.
//
// With -metrics, an HTTP endpoint serves Prometheus text exposition on
// /metrics, sampled time-series history on /metrics/history, expvar on
// /debug/vars, Chrome trace-event JSON of the compaction pipeline on
// /debug/trace (load it in chrome://tracing or https://ui.perfetto.dev),
// net/http/pprof on /debug/pprof/, and the watchdog profiler's capture
// log on /debug/profiler. The watchdog grabs heap+CPU profiles when
// writer stalls spike or the history sampler wedges.
//
// Protocol (one request per line, space-separated, values hex-escaped
// via Go %q):
//
//	PUT <key> <value>   -> OK
//	GET <key>           -> VALUE <value> | NOTFOUND
//	DEL <key>           -> OK
//	SCAN <start> <n>    -> KV <key> <value> (n lines) then END
//	STATS               -> STATS <json>
//	QUIT                -> closes the connection
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"tebis/internal/admission"
	"tebis/internal/client"
	"tebis/internal/fsck"
	"tebis/internal/lsm"
	"tebis/internal/metrics"
	"tebis/internal/obs"
	"tebis/internal/rdma"
	"tebis/internal/region"
	"tebis/internal/replica"
	"tebis/internal/server"
	"tebis/internal/shipcodec"
	"tebis/internal/storage"
)

// backupName names the in-process backup server -replica adds.
const backupName = "backup0"

// plane is the data plane behind the line protocol: the primary region
// server, the optional in-process backup server, and the one client
// every connection's commands go through.
type plane struct {
	primary *server.Server
	backup  *server.Server // nil without -replica
	client  *client.Client
}

// openPlane starts a region server from cfg and opens one region
// covering the whole keyspace on it. A non-nil backupDev adds a server
// named backup0 on that device, joined to the region as its Send-Index
// backup. ccfg configures the client; its servers and region map are
// filled in here.
func openPlane(cfg server.Config, backupDev storage.Device, ccfg client.Config) (*plane, error) {
	primary, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	pl := &plane{primary: primary}
	names, mode := []string{cfg.Name}, replica.NoReplication
	if backupDev != nil {
		names, mode = append(names, backupName), replica.SendIndex
	}
	rmap, err := region.Partition(1, names, len(names)-1)
	if err != nil {
		pl.Close()
		return nil, err
	}
	r := rmap.Regions[0]
	p, err := primary.OpenPrimary(r, mode)
	if err != nil {
		pl.Close()
		return nil, err
	}
	if backupDev != nil {
		// The backup serves no clients, so one worker and one spinning
		// thread are enough.
		pl.backup, err = server.New(server.Config{
			Name:        backupName,
			Device:      backupDev,
			Endpoint:    rdma.NewEndpoint(backupName),
			Cycles:      &metrics.Cycles{},
			LSM:         lsm.Options{L0MaxKeys: cfg.LSM.L0MaxKeys, NodeSize: cfg.LSM.NodeSize},
			Workers:     1,
			SpinThreads: 1,
			Trace:       cfg.Trace,
			Stages:      cfg.Stages,
			Events:      cfg.Events,
		})
		if err != nil {
			pl.Close()
			return nil, err
		}
		b, err := pl.backup.OpenBackup(r, mode)
		if err != nil {
			pl.Close()
			return nil, err
		}
		replica.Attach(p, b)
	}
	ccfg.Servers = map[string]client.ServerHandle{cfg.Name: primary}
	ccfg.Map = rmap
	if pl.client, err = client.New(ccfg); err != nil {
		pl.Close()
		return nil, err
	}
	return pl, nil
}

// Close stops the client, then the primary (detaching its backup),
// then the backup server.
func (pl *plane) Close() error {
	if pl.client != nil {
		pl.client.Close()
	}
	err := pl.primary.Close()
	if pl.backup != nil {
		if berr := pl.backup.Close(); err == nil {
			err = berr
		}
	}
	return err
}

func main() {
	var (
		addr        = flag.String("addr", ":7625", "listen address")
		data        = flag.String("data", "/tmp/tebis.img", "device file path")
		segSize     = flag.Int64("segment", 2<<20, "segment size in bytes (power of two)")
		l0          = flag.Int("l0", lsm.DefaultL0MaxKeys, "L0 capacity in keys")
		metricsAddr = flag.String("metrics", "", "observability HTTP listen address (empty = off)")
		profileDir  = flag.String("profile-dir", "", "watchdog profile output directory (empty = OS temp)")
		withReplica = flag.Bool("replica", false, "attach an in-process Send-Index backup")
		shipRaw     = flag.Bool("ship-uncompressed", false, "ship raw index segments (disable the DESIGN.md §10 wire codec)")
		fsckMode    = flag.Bool("fsck", false, "verify the device image read-only and exit (see cmd/tebis-fsck)")
		workers     = flag.Int("workers", server.DefaultWorkers, "worker pool size behind the line protocol")
		taskThresh  = flag.Int("task-threshold", server.DefaultTaskThreshold, "worker wake-up threshold: tasks queued on a worker before dispatch spills to the next")
		queueDepth  = flag.Int("queue-depth", 0, "per-worker task-queue capacity (0 = 4x task-threshold, the data-plane default)")
		admissionOn = flag.Bool("admission", true, "signal-driven admission control: adapt the wake-up threshold to queue wait and shed mutations under overload (false = fixed knob)")
		traceSample = flag.Float64("trace-sample", client.DefaultTraceSampleRate, "fraction of commands sampled into stage telemetry and /debug/trace")
		gcOn        = flag.Bool("gc", false, "online value-log garbage collection: relocate live records out of mostly-dead segments and free them (DESIGN.md §12)")
		gcRatio     = flag.Float64("gc-dead-ratio", 0, "dead-byte fraction past which a sealed segment becomes a GC victim (0 = engine default 0.5)")
		gcMaxSegs   = flag.Int("gc-max-segments", 0, "victim segments per GC pass (0 = engine default 4)")
		gcInterval  = flag.Duration("gc-interval", server.DefaultGCInterval, "pause between background GC passes")
		logLevel    = flag.String("log-level", obs.LevelInfo, "minimum log level (debug, info, warn, error)")
	)
	flag.Parse()

	// One leveled structured stream for everything the binary says:
	// direct log calls and, via the event journal's sink, every
	// control-plane transition — one grep surface, key=value fields.
	logger := obs.NewLogger(os.Stderr, *logLevel)
	fatal := func(msg string, kv ...any) {
		logger.Error(msg, kv...)
		os.Exit(1)
	}
	ev := obs.NewEventLog(0)
	ev.SetSink(logger)

	if *fsckMode {
		res, err := fsck.Run(fsck.Options{Path: *data, SegmentSize: *segSize, Log: os.Stdout})
		if err != nil {
			fatal("fsck failed", "path", *data, "err", err)
		}
		if !res.Clean() {
			fatal("fsck found corruption", "path", *data,
				"corrupt", len(res.Findings), "scanned", res.Scanned)
		}
		logger.Info("fsck clean", "path", *data, "scanned", res.Scanned)
		return
	}

	fdev, err := storage.NewFileDevice(*data, *segSize, 0)
	if err != nil {
		fatal("open device failed", "path", *data, "err", err)
	}
	defer fdev.Close()
	var backupDev storage.Device
	if *withReplica {
		mdev, err := storage.NewMemDevice(*segSize, 0)
		if err != nil {
			fatal("open backup device failed", "err", err)
		}
		defer mdev.Close()
		backupDev = mdev
	}

	var (
		tracer *obs.Tracer
		reg    *obs.Registry
		cstats metrics.CompactionStats
		stages = metrics.NewStageSet()
	)
	if *metricsAddr != "" {
		tracer = obs.NewTracer(0)
		reg = obs.NewRegistry()
	}
	shipCodec := shipcodec.Flate
	if *shipRaw {
		shipCodec = shipcodec.None
	}
	// The client treats a zero rate as "default"; here it means off.
	sampleRate := *traceSample
	if sampleRate <= 0 {
		sampleRate = -1
	}
	pl, err := openPlane(server.Config{
		Name:     "primary",
		Device:   fdev,
		Endpoint: rdma.NewEndpoint("primary"),
		Cycles:   &metrics.Cycles{},
		LSM: lsm.Options{
			L0MaxKeys:       *l0,
			NodeSize:        lsm.DefaultNodeSize,
			CompactionStats: &cstats,
		},
		Workers:          *workers,
		TaskThreshold:    *taskThresh,
		WorkerQueueDepth: *queueDepth,
		ShipCodec:        shipCodec,
		Trace:            tracer,
		Stages:           stages,
		Events:           ev,
		// Disabled keeps the controller (and its tebis_admission_*
		// families) but pins the fixed knob.
		Admission: &admission.Config{Disabled: !*admissionOn},
		GC: server.GCConfig{
			Enabled:      *gcOn,
			MinDeadRatio: *gcRatio,
			MaxSegments:  *gcMaxSegs,
			Interval:     *gcInterval,
		},
	}, backupDev, client.Config{
		Name:            "line-protocol",
		Trace:           tracer,
		TraceSampleRate: sampleRate,
		Stages:          stages,
	})
	if err != nil {
		fatal("open data plane failed", "err", err)
	}
	defer pl.Close()

	if reg != nil {
		health := obs.NewHealth()
		for _, s := range []*server.Server{pl.primary, pl.backup} {
			if s != nil {
				s.Observe(reg)
				s.RegisterHealth(health)
			}
		}

		// Continuous profiling: the watchdog captures heap+CPU profiles
		// when writer stalls spike (the paper's §5.1 backpressure
		// pathology) or when the history sampler itself stops ticking.
		prof, err := obs.NewProfiler(*profileDir)
		if err != nil {
			fatal("profiler init failed", "err", err)
		}
		samp := obs.NewSampler(reg, 0, 0)
		samp.Start()
		prof.Watch(time.Second,
			obs.StallCondition("writer-stall", 250*time.Millisecond,
				func() time.Duration { return cstats.Snapshot().WriterStallTime }),
			obs.ScrapeStallCondition(samp, 5*obs.DefaultSampleInterval))

		got, err := obs.Serve(*metricsAddr, reg, tracer, prof, samp, ev, health)
		if err != nil {
			fatal("metrics listen failed", "addr", *metricsAddr, "err", err)
		}
		logger.Info("metrics endpoint up",
			"url", "http://"+got+"/metrics",
			"trace", "/debug/trace", "events", "/debug/events",
			"health", "/healthz", "ready", "/readyz",
			"history", "/metrics/history", "pprof", "/debug/pprof/")
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listen failed", "addr", *addr, "err", err)
	}
	logger.Info("listening",
		"addr", ln.Addr().String(), "device", *data, "segment_bytes", *segSize,
		"replica", *withReplica, "workers", *workers, "threshold", *taskThresh,
		"depth", *queueDepth, "admission", *admissionOn)
	ev.Record(obs.Event{Type: obs.EvServerStarted, Node: "primary",
		Msg: "line-protocol front end accepting connections",
		Fields: map[string]string{
			"addr": ln.Addr().String(), "replica": fmt.Sprint(*withReplica)}})

	for {
		conn, err := ln.Accept()
		if err != nil {
			logger.Warn("accept failed", "err", err)
			continue
		}
		go serve(conn, pl)
	}
}

// errLine renders a failed command's reply; a mutation admission
// control still shed after the client's retries answers overloaded.
func errLine(err error) string {
	if errors.Is(err, client.ErrOverloaded) {
		return "ERR overloaded: shed by admission control, back off and retry"
	}
	return fmt.Sprintf("ERR %v", err)
}

func serve(conn net.Conn, pl *plane) {
	defer conn.Close()
	cl := pl.client
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	w := bufio.NewWriter(conn)
	defer w.Flush()
	for sc.Scan() {
		fields := splitFields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch strings.ToUpper(fields[0]) {
		case "PUT":
			if len(fields) != 3 {
				fmt.Fprintln(w, "ERR usage: PUT <key> <value>")
				break
			}
			key, err1 := unq(fields[1])
			val, err2 := unq(fields[2])
			if err1 != nil || err2 != nil {
				fmt.Fprintln(w, "ERR bad escaping")
				break
			}
			if err := cl.Put(key, val); err != nil {
				fmt.Fprintln(w, errLine(err))
				break
			}
			fmt.Fprintln(w, "OK")
		case "GET":
			if len(fields) != 2 {
				fmt.Fprintln(w, "ERR usage: GET <key>")
				break
			}
			key, err := unq(fields[1])
			if err != nil {
				fmt.Fprintln(w, "ERR bad escaping")
				break
			}
			v, found, err := cl.Get(key)
			switch {
			case err != nil:
				fmt.Fprintln(w, errLine(err))
			case !found:
				fmt.Fprintln(w, "NOTFOUND")
			default:
				fmt.Fprintf(w, "VALUE %q\n", v)
			}
		case "DEL":
			if len(fields) != 2 {
				fmt.Fprintln(w, "ERR usage: DEL <key>")
				break
			}
			key, err := unq(fields[1])
			if err != nil {
				fmt.Fprintln(w, "ERR bad escaping")
				break
			}
			if err := cl.Delete(key); err != nil {
				fmt.Fprintln(w, errLine(err))
				break
			}
			fmt.Fprintln(w, "OK")
		case "SCAN":
			if len(fields) != 3 {
				fmt.Fprintln(w, "ERR usage: SCAN <start> <n>")
				break
			}
			start, err := unq(fields[1])
			if err != nil {
				fmt.Fprintln(w, "ERR bad escaping")
				break
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil || n < 1 {
				fmt.Fprintln(w, "ERR bad count")
				break
			}
			// One reply holds as many pairs as fit the client's reply
			// slot; continue past the last key until n pairs or the end
			// of the keyspace.
			for n > 0 {
				pairs, err := cl.Scan(start, n)
				if err != nil {
					fmt.Fprintln(w, errLine(err))
					break
				}
				if len(pairs) == 0 {
					fmt.Fprintln(w, "END")
					break
				}
				for _, p := range pairs {
					fmt.Fprintf(w, "KV %q %q\n", p.Key, p.Value)
				}
				n -= len(pairs)
				if n == 0 {
					fmt.Fprintln(w, "END")
				}
				start = append(pairs[len(pairs)-1].Key, 0)
			}
		case "STATS":
			devStats := pl.primary.Device().Stats()
			out, _ := json.Marshal(map[string]any{
				"bytes_read":    devStats.BytesRead,
				"bytes_written": devStats.BytesWritten,
				"segments_live": devStats.SegmentsLive,
				"cycles_total":  pl.primary.Cycles().Snapshot().Total(),
			})
			fmt.Fprintf(w, "STATS %s\n", out)
		case "QUIT":
			return
		default:
			fmt.Fprintf(w, "ERR unknown command %q\n", fields[0])
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// splitFields tokenizes a command line, keeping %q-quoted strings
// (which may contain spaces) as single tokens.
func splitFields(line string) []string {
	var out []string
	i := 0
	for i < len(line) {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		if i >= len(line) {
			break
		}
		start := i
		if line[i] == '"' {
			i++
			for i < len(line) {
				if line[i] == '\\' {
					i += 2
					continue
				}
				if line[i] == '"' {
					i++
					break
				}
				i++
			}
		} else {
			for i < len(line) && line[i] != ' ' && line[i] != '\t' {
				i++
			}
		}
		out = append(out, line[start:i])
	}
	return out
}

// unq decodes a %q-escaped token.
func unq(s string) ([]byte, error) {
	if !strings.HasPrefix(s, "\"") {
		return []byte(s), nil
	}
	out, err := strconv.Unquote(s)
	return []byte(out), err
}
