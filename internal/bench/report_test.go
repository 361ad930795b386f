package bench

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// gateFixture is a synthetic set of gated reports and CSVs on which
// every gate passes.
type gateFixture struct {
	obs  ObservabilityReport
	gc   GCReport
	tail TailReport
	lag  LagReport
	csvs map[string][]string // file name -> lines, header first
}

func passingFixture() *gateFixture {
	burst := TailScenario{Name: "flash-burst-adaptive", Adaptive: true, Seed: 10,
		Tenants: []TailTenant{
			{Tenant: "t1", PreP99Us: 100, BurstP99Us: 250},
			{Tenant: "t2", PreP99Us: 90, BurstP99Us: 900, Shed: 40},
		}}
	return &gateFixture{
		obs: ObservabilityReport{OverheadOfferedLoadPercent: 1},
		gc:  GCReport{SpaceAmp: 1.1, OverheadOfferedLoadPercent: 2},
		tail: TailReport{
			Gate: TailGate{OverheadPercent: 1, PreBurstP99Us: 100, AdaptiveBurstP99Us: 250,
				ExemplarsResolved: 3},
			Scenarios: []TailScenario{burst},
		},
		lag: LagReport{MaxStalenessMillis: 51, OverheadOfferedLoadPercent: 1},
		csvs: map[string][]string{
			gcCSV: {"mode,round,live_bytes,dead_bytes,trimmed_bytes,space_amp,log_segments",
				"gc-on,0,1,0,0,1.000,1"},
			tailCSV: {"scenario,tenant,stage,count,p50_us,p99_us",
				"uniform,t1,apply,1,1.0,2.0", "uniform,t2,apply,1,1.0,2.0",
				"zipfian,t1,apply,1,1.0,2.0", "zipfian,t2,apply,1,1.0,2.0",
				"flash-burst-adaptive,t1,apply,1,1.0,2.0", "flash-burst-adaptive,t2,apply,1,1.0,2.0"},
			lagCSV: {"t_ms,phase,lag_ops,lag_bytes,staleness_ms",
				"5.0,baseline,0,0,0.000", "10.0,delayed,1,128,50.000", "15.0,drain,0,0,0.000"},
		},
	}
}

// dropRows removes the CSV rows whose column col equals v.
func (f *gateFixture) dropRows(name string, col int, v string) {
	var kept []string
	for i, line := range f.csvs[name] {
		if i > 0 && strings.Split(line, ",")[col] == v {
			continue
		}
		kept = append(kept, line)
	}
	f.csvs[name] = kept
}

func (f *gateFixture) write(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for exp, rep := range map[Experiment]any{ExpObservability: f.obs, ExpGC: f.gc, ExpTail: f.tail, ExpLag: f.lag} {
		if err := writeReport(io.Discard, dir, exp, rep); err != nil {
			t.Fatal(err)
		}
	}
	for name, lines := range f.csvs {
		if _, err := writeArtifact(io.Discard, dir, name, []byte(strings.Join(lines, "\n")+"\n")); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func gatesOf(t *testing.T, exp Experiment, dir string) []Gate {
	t.Helper()
	gates, err := Gates(exp, dir)
	if err != nil {
		t.Fatal(err)
	}
	return gates
}

// TestGatesPassFailAndRetry feeds every acceptance gate one passing and
// one failing synthetic report: the failing report must fail exactly
// that gate, and retryGates must rerun the experiment only when the
// failing gate is a Retry gate.
func TestGatesPassFailAndRetry(t *testing.T) {
	cases := []struct {
		exp   Experiment
		gate  string
		retry bool
		fail  func(f *gateFixture)
	}{
		{ExpObservability, "overhead_offered_load_percent", false, func(f *gateFixture) { f.obs.OverheadOfferedLoadPercent = 5.1 }},

		{ExpGC, "BENCH_fig12_space.csv bytes", false, func(f *gateFixture) { delete(f.csvs, gcCSV) }},
		{ExpGC, "space_amp", false, func(f *gateFixture) { f.gc.SpaceAmp = 2.1 }},
		{ExpGC, "overhead_offered_load_percent", false, func(f *gateFixture) { f.gc.OverheadOfferedLoadPercent = 10.5 }},

		{ExpTail, "total_lost_acks", false, func(f *gateFixture) { f.tail.Gate.TotalLostAcks = 1 }},
		{ExpTail, "overhead_percent", true, func(f *gateFixture) { f.tail.Gate.OverheadPercent = 5.2 }},
		{ExpTail, "adaptive_burst_p99_us", true, func(f *gateFixture) { f.tail.Gate.AdaptiveBurstP99Us = 301 }},
		{ExpTail, "exemplars_resolved", false, func(f *gateFixture) { f.tail.Gate.ExemplarsResolved = 0 }},
		{ExpTail, "BENCH_fig11_tail.csv rows scenario=uniform", false, func(f *gateFixture) { f.dropRows(tailCSV, 0, "uniform") }},
		{ExpTail, "BENCH_fig11_tail.csv rows scenario=zipfian", false, func(f *gateFixture) { f.dropRows(tailCSV, 0, "zipfian") }},
		{ExpTail, "BENCH_fig11_tail.csv rows scenario=flash-burst-adaptive", false, func(f *gateFixture) { f.dropRows(tailCSV, 0, "flash-burst-adaptive") }},
		{ExpTail, "BENCH_fig11_tail.csv rows tenant=t1", false, func(f *gateFixture) { f.dropRows(tailCSV, 1, "t1") }},
		{ExpTail, "BENCH_fig11_tail.csv rows tenant=t2", false, func(f *gateFixture) { f.dropRows(tailCSV, 1, "t2") }},

		{ExpLag, "lost_acks", false, func(f *gateFixture) { f.lag.LostAcks = 1 }},
		{ExpLag, "wrong_reads", false, func(f *gateFixture) { f.lag.WrongReads = 1 }},
		{ExpLag, "evictions", false, func(f *gateFixture) { f.lag.Evictions = 1 }},
		{ExpLag, "max_staleness_ms", false, func(f *gateFixture) { f.lag.MaxStalenessMillis = 24 }},
		{ExpLag, "final_lag_ops", false, func(f *gateFixture) { f.lag.FinalLagOps = 1 }},
		{ExpLag, "final_staleness_ms", false, func(f *gateFixture) { f.lag.FinalStalenessMillis = 1.5 }},
		{ExpLag, "overhead_offered_load_percent", true, func(f *gateFixture) { f.lag.OverheadOfferedLoadPercent = 5.5 }},
		{ExpLag, "BENCH_fig13_lag.csv rows phase=baseline", false, func(f *gateFixture) { f.dropRows(lagCSV, 1, "baseline") }},
		{ExpLag, "BENCH_fig13_lag.csv rows phase=delayed", false, func(f *gateFixture) { f.dropRows(lagCSV, 1, "delayed") }},
		{ExpLag, "BENCH_fig13_lag.csv rows phase=drain", false, func(f *gateFixture) { f.dropRows(lagCSV, 1, "drain") }},
	}

	// The table covers every gate the reports define, and the passing
	// fixture passes all of them.
	passDir := passingFixture().write(t)
	want := make(map[Experiment][]string)
	for _, c := range cases {
		want[c.exp] = append(want[c.exp], c.gate)
	}
	for exp := range gatedReports {
		var got []string
		for _, g := range gatesOf(t, exp, passDir) {
			if !g.Pass() {
				t.Errorf("%s: passing fixture fails %s = %v %s %v", exp, g.Name, g.Value, g.Op, g.Bound)
			}
			got = append(got, g.Name)
		}
		sort.Strings(got)
		sort.Strings(want[exp])
		if !reflect.DeepEqual(got, want[exp]) {
			t.Errorf("%s gates = %q, table covers %q", exp, got, want[exp])
		}
	}

	for _, c := range cases {
		t.Run(string(c.exp)+"/"+c.gate, func(t *testing.T) {
			f := passingFixture()
			c.fail(f)
			failDir := f.write(t)
			failing := gatesOf(t, c.exp, failDir)
			for _, g := range failing {
				if g.Pass() == (g.Name == c.gate) {
					t.Errorf("gate %s pass=%v on a report that breaks only %s", g.Name, g.Pass(), c.gate)
				}
				if g.Name == c.gate && g.Retry != c.retry {
					t.Errorf("gate %s Retry = %v, want %v", g.Name, g.Retry, c.retry)
				}
			}

			// The first attempt fails the gate and the second passes:
			// only a Retry gate gets the second attempt.
			attempts := 0
			gates, err := retryGates(func() ([]Gate, error) {
				attempts++
				if attempts == 1 {
					return failing, nil
				}
				return gatesOf(t, c.exp, passDir), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			wantAttempts := 1
			if c.retry {
				wantAttempts = 2
			}
			if attempts != wantAttempts || allPass(gates) != c.retry {
				t.Errorf("attempts = %d, pass = %v; want %d, %v", attempts, allPass(gates), wantAttempts, c.retry)
			}
		})
	}
}

// TestRetryGatesCorrectnessFailureOnRetryFails checks that a
// correctness gate failing on the rerun fails the run even though the
// first attempt failed only a Retry gate.
func TestRetryGatesCorrectnessFailureOnRetryFails(t *testing.T) {
	timing := Gate{Name: "overhead", Value: 6, Op: "<=", Bound: 5, Retry: true}
	lost := Gate{Name: "lost", Value: 1, Op: "==", Bound: 0}
	attempts := 0
	gates, err := retryGates(func() ([]Gate, error) {
		attempts++
		if attempts == 1 {
			return []Gate{timing}, nil
		}
		timing.Value = 1
		return []Gate{timing, lost}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 2 || allPass(gates) {
		t.Fatalf("attempts = %d, pass = %v; want 2, false", attempts, allPass(gates))
	}
}

// TestReportSchema pins the JSON keys each experiment's report had
// before the experiments shared one engine loader and one A/B helper,
// so readers of the committed BENCH_*.json files keep working. Keys
// may be added, never removed or renamed.
func TestReportSchema(t *testing.T) {
	engineCmp := []string{"build_millis", "compaction_workers", "jobs", "kops_per_sec", "l0_buffers",
		"merge_millis", "mode", "offered_kops_per_sec", "overlap_fraction", "p50_put_micros",
		"p99_put_micros", "segments_shipped", "segments_shipped_early", "ship_millis",
		"writer_stall_millis", "writer_stalls"}
	engineObs := []string{"instrumented", "jobs", "kops_per_sec", "ns_per_op", "offered_kops_per_sec",
		"p99_put_micros", "paced_kops_per_sec", "scrapes", "trace_spans", "writer_stall_millis"}
	engineInt := []string{"framed", "get_ns_per_op", "jobs", "kops_per_sec", "ns_per_op",
		"offered_kops_per_sec", "p99_put_micros", "paced_kops_per_sec", "writer_stall_millis"}
	gcMode := []string{"dead_bytes", "final_space_amp", "gc_bytes_reclaimed", "gc_enabled", "gc_passes",
		"gc_records_moved", "gc_segments_freed", "kops_per_sec", "live_bytes", "log_segments",
		"ns_per_op", "offered_kops_per_sec", "paced_kops_per_sec", "series", "trimmed_bytes"}
	lagMode := []string{"kops_per_sec", "lag_tracking", "ns_per_op", "offered_kops_per_sec", "paced_kops_per_sec"}

	cases := []struct {
		exp  Experiment
		typ  reflect.Type
		keys map[string][]string // dotted field path ("" = top level) -> keys
	}{
		{ExpCompaction, reflect.TypeOf(CompactionReport{}), map[string][]string{
			"":          {"l0_max_keys", "pipelined", "records", "serial", "value_size"},
			"serial":    engineCmp,
			"pipelined": engineCmp,
		}},
		{ExpObservability, reflect.TypeOf(ObservabilityReport{}), map[string][]string{
			"": {"l0_max_keys", "off", "on", "overhead_ns_per_op_percent", "overhead_offered_load_percent",
				"records", "value_size"},
			"off": engineObs,
			"on":  engineObs,
		}},
		{ExpIntegrity, reflect.TypeOf(IntegrityReport{}), map[string][]string{
			"": {"framed", "l0_max_keys", "overhead_get_ns_per_op_percent", "overhead_ns_per_op_percent",
				"overhead_offered_load_percent", "raw", "records", "value_size"},
			"raw":    engineInt,
			"framed": engineInt,
		}},
		{ExpGC, reflect.TypeOf(GCReport{}), map[string][]string{
			"": {"gc_off", "gc_on", "keys", "l0_max_keys", "overhead_offered_load_percent", "rounds",
				"space_amp", "value_size"},
			"gc_off":        gcMode,
			"gc_on":         gcMode,
			"gc_on.series":  {"amp", "dead_bytes", "live_bytes", "log_segments", "round", "trimmed_bytes"},
			"gc_off.series": {"amp", "dead_bytes", "live_bytes", "log_segments", "round", "trimmed_bytes"},
		}},
		{ExpLag, reflect.TypeOf(LagReport{}), map[string][]string{
			"": {"acked_writes", "backup", "baseline_ops", "delay_ms", "delayed_ops", "drain_ops", "evictions",
				"final_lag_bytes", "final_lag_ops", "final_staleness_ms", "lost_acks", "max_lag_bytes",
				"max_lag_ops", "max_staleness_ms", "overhead_offered_load_percent", "region", "series",
				"tracking_off", "tracking_on", "wrong_reads"},
			"tracking_off": lagMode,
			"tracking_on":  lagMode,
			"series":       {"lag_bytes", "lag_ops", "phase", "staleness_ms", "t_ms"},
		}},
		{ExpTail, reflect.TypeOf(TailReport{}), map[string][]string{
			"": {"csvs", "gate", "sample_rate", "scenarios"},
			"gate": {"adaptive_burst_p99_us", "exemplars_resolved", "fixed_burst_p99_us", "overhead_percent",
				"overhead_unpaced_percent", "pre_burst_p99_us", "total_lost_acks"},
			"scenarios": {"adaptive", "delayed", "elapsed_ms", "exemplars", "name", "shed", "stages",
				"tenants", "tightens"},
			"scenarios.tenants": {"acked", "burst_p50_us", "burst_p99_us", "lost_acks", "ops",
				"overload_retries", "pattern", "post_p50_us", "post_p99_us", "pre_p50_us", "pre_p99_us",
				"priority", "rejected", "tenant"},
			"scenarios.stages":    {"count", "p50_us", "p99_us", "scenario", "stage", "tenant"},
			"scenarios.exemplars": {"dur_us", "resolved", "scenario", "stage", "tenant", "trace_id"},
		}},
		{ExpFigures, reflect.TypeOf(FiguresReport{}), map[string][]string{
			"": {"csvs", "fig10", "records", "replicas", "run_ops", "runs", "setup", "trace_spans"},
			"runs": {"elapsed_ms", "io_amp", "io_amp_series", "kops_per_sec", "latency", "net_amp",
				"net_amp_series", "net_bytes_series", "net_server_bytes", "ops", "samples",
				"ship_raw_bytes", "ship_raw_series", "ship_wire_bytes", "ship_wire_series",
				"throughput_kops", "workload"},
			"fig10": {"baseline", "baseline_net_amp_ratio", "compression_ratio", "net_amp_ratio",
				"throughput_delta_percent"},
		}},
	}
	for _, c := range cases {
		for path, want := range c.keys {
			typ := c.typ
			if path != "" {
				for _, name := range strings.Split(path, ".") {
					typ = jsonField(t, typ, name)
				}
			}
			have := make(map[string]bool)
			for _, k := range jsonKeys(typ) {
				have[k] = true
			}
			for _, k := range want {
				if !have[k] {
					t.Errorf("%s report: %q lost key %q", c.exp, path, k)
				}
			}
		}
	}

	// The committed report decodes without unknown keys.
	data, err := os.ReadFile(filepath.Join("..", "..", reportName(ExpObservability)))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var rep ObservabilityReport
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("committed %s: %v", reportName(ExpObservability), err)
	}
}

// jsonKeys lists the JSON object keys a struct type encodes to.
func jsonKeys(typ reflect.Type) []string {
	var keys []string
	for i := 0; i < typ.NumField(); i++ {
		if name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ","); name != "" && name != "-" {
			keys = append(keys, name)
		}
	}
	return keys
}

// jsonField returns the struct type behind the field encoded as key,
// looking through pointers and slices.
func jsonField(t *testing.T, typ reflect.Type, key string) reflect.Type {
	t.Helper()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if name, _, _ := strings.Cut(f.Tag.Get("json"), ","); name == key {
			ft := f.Type
			for ft.Kind() == reflect.Pointer || ft.Kind() == reflect.Slice {
				ft = ft.Elem()
			}
			return ft
		}
	}
	t.Fatalf("%s has no field encoded as %q", typ, key)
	return nil
}
