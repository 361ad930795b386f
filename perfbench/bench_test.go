package main

import (
	"encoding/json"
	"os"
	"testing"

	"tebis/internal/ycsb"
)

// tinyOptions shrinks a run to a few thousand records and half a
// second, keeping every code path of the full-size run.
func tinyOptions(t *testing.T, workload string, trace bool) options {
	o := defaultOptions()
	o.workload = workload
	o.seed = 7
	o.seconds = 0.5
	o.trace = trace
	o.records = 4000
	o.setups = 1
	o.layerRecords = 3000
	o.spansDir = t.TempDir()
	return o
}

// TestTinyRunsEmitEveryMetric runs each workload untraced and traced at
// tiny scale: each must pass its checks and report every metric named
// in endToEnd or perLayer, with its unit.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			o := tinyOptions(t, name, trace)
			r, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, r.Correct, r.Attempted, r.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := r.Metrics[d.name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, trace, d.name)
				} else if m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", name, trace, d.name, m.Unit, d.unit)
				}
			}
			if _, err := os.Stat(o.spansDir + "/" + name + ".csv"); trace && err != nil {
				t.Errorf("%s: spans not written: %v", name, err)
			}
		}
	}
}

// TestWrongExpectedValueFailsTheRun corrupts the expected value of some
// records: every read of them must count as a failed op.
func TestWrongExpectedValueFailsTheRun(t *testing.T) {
	o := tinyOptions(t, "run_c", false)
	o.mutateExpected = func(rec uint64, want []byte) []byte {
		if rec%5 == 0 {
			want[len(want)-1] ^= 0xff
		}
		return want
	}
	r, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Correct || r.Failed == 0 {
		t.Fatalf("wrong expected values passed: correct=%v failed=%d of %d", r.Correct, r.Failed, r.Attempted)
	}
}

// TestSelfTimes checks the containment nesting: a root holding two
// children, one of which holds a grandchild.
func TestSelfTimes(t *testing.T) {
	got := selfTimes([]interval{
		{"apply", 30, 80},
		{"root", 0, 100},
		{"ship", 40, 70},
		{"dispatch", 10, 20},
	})
	want := map[string]int64{"root": 100 - 10 - 50, "dispatch": 10, "apply": 50 - 30, "ship": 30}
	for name, w := range want {
		if len(got[name]) != 1 || got[name][0] != w {
			t.Errorf("self time of %s = %v, want %d", name, got[name], w)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the code must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's workloads and
// metric names, units and directions identical to what the code runs
// and reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, code has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not in the code", w.Name)
		}
	}
	compare := func(kind string, file []benchmarkMetric, code []metricDef) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, code %d", kind, len(file), len(code))
			return
		}
		for i, m := range file {
			if d := code[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", kind, i, m, d)
			}
		}
	}
	compare("end_to_end", bf.EndToEnd, endToEnd)
	compare("per_layer", bf.PerLayer, perLayer)
}

// provenance is perfbench/provenance.json's per-workload record.
type provenance struct {
	Workloads []struct {
		Name         string `json:"name"`
		Records      uint64 `json:"records"`
		DatasetBytes uint64 `json:"dataset_bytes"`
		Loop         string `json:"loop"`
		Issuers      int    `json:"issuers"`
	} `json:"workloads"`
}

// TestProvenanceMatchesCode keeps provenance.json's sizes in step with
// the defaults the benchmark runs.
func TestProvenanceMatchesCode(t *testing.T) {
	data, err := os.ReadFile("provenance.json")
	if err != nil {
		t.Fatal(err)
	}
	var p provenance
	if err := json.Unmarshal(data, &p); err != nil {
		t.Fatal(err)
	}
	o := defaultOptions()
	if len(p.Workloads) != len(workloads) {
		t.Fatalf("provenance lists %d workloads, code has %d", len(p.Workloads), len(workloads))
	}
	for _, w := range p.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("provenance workload %s is not in the code", w.Name)
		}
		if w.Records != o.records || w.Issuers != issuers || w.Loop != "closed" {
			t.Errorf("%s: provenance records=%d issuers=%d loop=%s, code runs %d records with %d closed-loop issuers",
				w.Name, w.Records, w.Issuers, w.Loop, o.records, issuers)
		}
		if want := ycsb.MixSD.DatasetBytes(o.records); w.DatasetBytes != want {
			t.Errorf("%s: provenance dataset_bytes=%d, records [0, %d) hold %d", w.Name, w.DatasetBytes, o.records, want)
		}
	}
}
