package main

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"tebis/internal/admission"
	"tebis/internal/client"
	"tebis/internal/lsm"
	"tebis/internal/metrics"
	"tebis/internal/obs"
	"tebis/internal/rdma"
	"tebis/internal/server"
	"tebis/internal/storage"
)

// lineTenant is the stage and admission label of the adapter's client,
// which runs as the default tenant.
const lineTenant = "t0"

// startPlaneWith builds the data plane on memory devices, sampling every
// command, and serves the line protocol on an in-memory connection. adm
// configures admission control (nil = off); replicated adds the backup0
// server.
func startPlaneWith(t *testing.T, adm *admission.Config, replicated bool) (net.Conn, *plane) {
	t.Helper()
	newDev := func() *storage.MemDevice {
		dev, err := storage.NewMemDevice(64<<10, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dev.Close() })
		return dev
	}
	var backupDev storage.Device
	if replicated {
		backupDev = newDev()
	}
	tracer := obs.NewTracer(0)
	stages := metrics.NewStageSet()
	pl, err := openPlane(server.Config{
		Name:      "primary",
		Device:    newDev(),
		Endpoint:  rdma.NewEndpoint("primary"),
		Cycles:    &metrics.Cycles{},
		LSM:       lsm.Options{L0MaxKeys: 256, NodeSize: 512, MaxLevels: 5},
		Trace:     tracer,
		Stages:    stages,
		Admission: adm,
	}, backupDev, client.Config{
		Name:            "line-protocol",
		Trace:           tracer,
		TraceSampleRate: 1,
		Stages:          stages,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pl.Close() })
	return dial(t, pl), pl
}

// dial opens one more line-protocol connection to pl over an in-memory
// pipe.
func dial(t *testing.T, pl *plane) net.Conn {
	t.Helper()
	cl, srv := net.Pipe()
	go serve(srv, pl)
	t.Cleanup(func() { cl.Close() })
	return cl
}

// startPipeServer is startPlaneWith without admission control or a
// backup.
func startPipeServer(t *testing.T) net.Conn {
	t.Helper()
	conn, _ := startPlaneWith(t, nil, false)
	return conn
}

// roundTripLines sends one line and reads n reply lines.
func roundTripLines(t *testing.T, conn net.Conn, r *bufio.Reader, line string, n int) []string {
	t.Helper()
	if _, err := fmt.Fprintln(conn, line); err != nil {
		t.Fatal(err)
	}
	var out []string
	for i := 0; i < n; i++ {
		reply, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("read reply to %q: %v", line, err)
		}
		out = append(out, strings.TrimSpace(reply))
	}
	return out
}

func TestServeProtocol(t *testing.T) {
	conn := startPipeServer(t)
	r := bufio.NewReader(conn)

	if got := roundTripLines(t, conn, r, `PUT "alpha" "value one"`, 1)[0]; got != "OK" {
		t.Fatalf("PUT -> %q", got)
	}
	if got := roundTripLines(t, conn, r, `GET "alpha"`, 1)[0]; got != `VALUE "value one"` {
		t.Fatalf("GET -> %q", got)
	}
	if got := roundTripLines(t, conn, r, `GET "missing"`, 1)[0]; got != "NOTFOUND" {
		t.Fatalf("GET missing -> %q", got)
	}
	if got := roundTripLines(t, conn, r, `DEL "alpha"`, 1)[0]; got != "OK" {
		t.Fatalf("DEL -> %q", got)
	}
	if got := roundTripLines(t, conn, r, `GET "alpha"`, 1)[0]; got != "NOTFOUND" {
		t.Fatalf("GET deleted -> %q", got)
	}

	// Unquoted tokens work too.
	if got := roundTripLines(t, conn, r, "PUT plainkey plainval", 1)[0]; got != "OK" {
		t.Fatalf("plain PUT -> %q", got)
	}
	if got := roundTripLines(t, conn, r, "GET plainkey", 1)[0]; got != `VALUE "plainval"` {
		t.Fatalf("plain GET -> %q", got)
	}
}

func TestServeScanAndStats(t *testing.T) {
	conn := startPipeServer(t)
	r := bufio.NewReader(conn)
	for i := 0; i < 10; i++ {
		line := fmt.Sprintf("PUT key%02d val%02d", i, i)
		if got := roundTripLines(t, conn, r, line, 1)[0]; got != "OK" {
			t.Fatalf("PUT -> %q", got)
		}
	}
	out := roundTripLines(t, conn, r, "SCAN key03 4", 5)
	if out[0] != `KV "key03" "val03"` || out[3] != `KV "key06" "val06"` || out[4] != "END" {
		t.Fatalf("SCAN -> %v", out)
	}
	stats := roundTripLines(t, conn, r, "STATS", 1)[0]
	if !strings.HasPrefix(stats, "STATS {") || !strings.Contains(stats, "bytes_written") {
		t.Fatalf("STATS -> %q", stats)
	}
}

func TestServeErrors(t *testing.T) {
	conn := startPipeServer(t)
	r := bufio.NewReader(conn)
	for _, bad := range []string{
		"PUT onlykey",
		"GET",
		"SCAN start notanumber",
		"BOGUS cmd",
	} {
		got := roundTripLines(t, conn, r, bad, 1)[0]
		if !strings.HasPrefix(got, "ERR") {
			t.Fatalf("%q -> %q, want ERR", bad, got)
		}
	}
	// QUIT closes the connection.
	fmt.Fprintln(conn, "QUIT")
	if _, err := r.ReadString('\n'); err == nil {
		t.Fatal("connection still open after QUIT")
	}
}

// TestServeConcurrentConnections: connections share the adapter's one
// client, so their commands contend for its request ring; every
// connection's writes must come back intact.
func TestServeConcurrentConnections(t *testing.T) {
	_, pl := startPlaneWith(t, nil, false)
	const conns, puts = 4, 150
	var wg sync.WaitGroup
	errs := make([]error, conns) // one slot per connection
	for c := 0; c < conns; c++ {
		conn := dial(t, pl)
		wg.Add(1)
		go func(c int, conn net.Conn) {
			defer wg.Done()
			r := bufio.NewReader(conn)
			// net.Pipe is unbuffered: send a line only after reading the
			// previous reply.
			ask := func(line string) string {
				if _, err := fmt.Fprintln(conn, line); err != nil {
					return err.Error()
				}
				reply, err := r.ReadString('\n')
				if err != nil {
					return err.Error()
				}
				return strings.TrimSpace(reply)
			}
			for i := 0; i < puts; i++ {
				put := ask(fmt.Sprintf("PUT c%d-k%03d c%d-v%03d", c, i, c, i))
				get := ask(fmt.Sprintf("GET c%d-k%03d", c, i))
				if want := fmt.Sprintf(`VALUE "c%d-v%03d"`, c, i); put != "OK" || get != want {
					errs[c] = fmt.Errorf("conn %d op %d: PUT -> %q, GET -> %q, want OK and %q", c, i, put, get, want)
					return
				}
			}
		}(c, conn)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestServeStageAttribution: with every command sampled, the server
// decomposes commands into dispatch and apply stage records under the
// line client's single tenant.
func TestServeStageAttribution(t *testing.T) {
	conn, pl := startPlaneWith(t, nil, false)
	r := bufio.NewReader(conn)
	for i := 0; i < 4; i++ {
		line := fmt.Sprintf("PUT key%d val%d", i, i)
		if got := roundTripLines(t, conn, r, line, 1)[0]; got != "OK" {
			t.Fatalf("PUT -> %q", got)
		}
	}
	seen := map[string]uint64{}
	for _, snap := range pl.primary.Stages().Snapshot() {
		if snap.Tenant != lineTenant {
			t.Fatalf("stage %s under tenant %q, want %q", snap.Stage, snap.Tenant, lineTenant)
		}
		seen[snap.Stage] = snap.Count
	}
	if seen[metrics.StageDispatch] != 4 || seen[metrics.StageApply] != 4 {
		t.Fatalf("stage counts = %v, want 4 dispatch and 4 apply", seen)
	}
}

// TestServeAdmissionShedsMutations: with the controller escalated to
// shedding, mutations answer overloaded once the client's retries are
// spent, while reads still serve.
func TestServeAdmissionShedsMutations(t *testing.T) {
	conn, pl := startPlaneWith(t, &admission.Config{
		MaxThreshold: 1, HighWater: time.Nanosecond, Window: 1,
	}, false)
	ctrl := pl.primary.Admission()
	r := bufio.NewReader(conn)
	if got := roundTripLines(t, conn, r, "PUT survivor val", 1)[0]; got != "OK" {
		t.Fatalf("PUT -> %q", got)
	}
	// Drive the state machine to shed: threshold is already at its
	// floor, so two high-wait windows escalate normal -> delay -> shed.
	ctrl.Observe(time.Millisecond)
	ctrl.Observe(time.Millisecond)
	if st := ctrl.State(); st != admission.StateShed {
		t.Fatalf("controller state = %v, want shed", st)
	}
	got := roundTripLines(t, conn, r, "PUT blocked val", 1)[0]
	if !strings.Contains(got, "overloaded") {
		t.Fatalf("shed PUT -> %q, want overloaded error", got)
	}
	if got := roundTripLines(t, conn, r, "GET survivor", 1)[0]; got != `VALUE "val"` {
		t.Fatalf("GET under shed -> %q, want the acked value (reads are never refused)", got)
	}
	// The client retried the shed PUT before giving up: every attempt
	// was shed exactly once.
	if n, want := ctrl.Snapshot().Shed[lineTenant], 1+pl.client.OverloadRetries(); n != want {
		t.Fatalf("shed counter = %d, want %d (1 + %d client retries)", n, want, want-1)
	}
}

// TestServeReplicaWiring: with a backup server, line-protocol writes
// replicate to backup0 — compactions ship index segments to it and its
// lag drains to zero — reads return every value, and both nodes report
// ready.
func TestServeReplicaWiring(t *testing.T) {
	conn, pl := startPlaneWith(t, nil, true)
	r := bufio.NewReader(conn)
	const n = 800 // over three L0 flushes' worth
	for i := 0; i < n; i++ {
		line := fmt.Sprintf("PUT key%04d val%04d", i, i)
		if got := roundTripLines(t, conn, r, line, 1)[0]; got != "OK" {
			t.Fatalf("PUT %d -> %q", i, got)
		}
	}
	if err := pl.primary.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	if snap := pl.primary.ShipStats().Snapshot(); snap.FullSegments+snap.DeltaSegments == 0 {
		t.Fatalf("no index segments shipped to %s: %+v", backupName, snap)
	}
	lags := pl.primary.Lag().Snapshot()
	if len(lags) != 1 || lags[0].Backup != backupName {
		t.Fatalf("lag streams = %+v, want one to %s", lags, backupName)
	}
	if lags[0].LagOps != 0 || lags[0].LagBytes != 0 {
		t.Fatalf("replica lag after WaitIdle = %d ops, %d bytes; want 0", lags[0].LagOps, lags[0].LagBytes)
	}
	for _, i := range []int{0, n / 2, n - 1} {
		want := fmt.Sprintf(`VALUE "val%04d"`, i)
		if got := roundTripLines(t, conn, r, fmt.Sprintf("GET key%04d", i), 1)[0]; got != want {
			t.Fatalf("GET key%04d -> %q, want %q", i, got, want)
		}
	}
	if err := pl.primary.Ready(); err != nil {
		t.Fatalf("primary not ready: %v", err)
	}
	if err := pl.backup.Ready(); err != nil {
		t.Fatalf("%s not ready: %v", backupName, err)
	}
}
