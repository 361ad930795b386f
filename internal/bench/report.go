package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// writeArtifact writes one output file into dir and names it on w.
func writeArtifact(w io.Writer, dir, name string, data []byte) (string, error) {
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	return path, nil
}

// reportName is the file an experiment's JSON report is written to.
func reportName(exp Experiment) string { return "BENCH_" + string(exp) + ".json" }

// writeReport writes rep as dir/BENCH_<exp>.json.
func writeReport(w io.Writer, dir string, exp Experiment, rep any) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	_, err = writeArtifact(w, dir, reportName(exp), append(data, '\n'))
	return err
}

// Gate is one acceptance check on an experiment's artifacts: Value
// must satisfy Op ("<=", ">=" or "==") against Bound.
type Gate struct {
	Name  string
	Value float64
	Op    string
	Bound float64
	// Retry marks a timing-sensitive gate. When only Retry gates fail,
	// the experiment is rerun once; a correctness gate that fails on
	// any attempt fails the run.
	Retry bool
	// Evidence, when set, is printed if the gate fails: the numbers
	// behind the verdict.
	Evidence string
}

// Pass reports whether the gate holds.
func (g Gate) Pass() bool {
	switch g.Op {
	case "<=":
		return g.Value <= g.Bound
	case ">=":
		return g.Value >= g.Bound
	case "==":
		return g.Value == g.Bound
	}
	return false
}

// gatedReport is a report type that carries acceptance gates. dir is
// where the report and its CSVs were written.
type gatedReport interface {
	gates(dir string) []Gate
}

// gatedReports maps each experiment with acceptance gates to a fresh
// report value to decode its JSON into.
var gatedReports = map[Experiment]func() gatedReport{
	ExpObservability: func() gatedReport { return new(ObservabilityReport) },
	ExpTail:          func() gatedReport { return new(TailReport) },
	ExpGC:            func() gatedReport { return new(GCReport) },
	ExpLag:           func() gatedReport { return new(LagReport) },
}

// Gates evaluates exp's acceptance gates against the artifacts a run
// wrote to dir. Experiments without gates return none.
func Gates(exp Experiment, dir string) ([]Gate, error) {
	mk, ok := gatedReports[exp]
	if !ok {
		return nil, nil
	}
	data, err := os.ReadFile(filepath.Join(dir, reportName(exp)))
	if err != nil {
		return nil, err
	}
	rep := mk()
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", reportName(exp), err)
	}
	return rep.gates(dir), nil
}

// RunGated runs exp into dir, prints one line per gate to w, and
// reports whether every gate passed. When only Retry gates fail, the
// experiment is rerun once and the rerun's gates decide.
func RunGated(exp Experiment, sc Scale, dir string, w io.Writer) (bool, error) {
	attempts := 0
	gates, err := retryGates(func() ([]Gate, error) {
		if attempts++; attempts > 1 {
			fmt.Fprintf(w, "%s: only retryable gates failed; rerunning once\n", exp)
		}
		if err := RunExperiment(exp, sc, dir, w); err != nil {
			return nil, err
		}
		gates, err := Gates(exp, dir)
		if err != nil {
			return nil, err
		}
		printGates(w, exp, dir, gates)
		return gates, nil
	})
	if err != nil {
		return false, err
	}
	return allPass(gates), nil
}

// retryGates runs attempt, and runs it once more when the only gates
// that failed are Retry gates.
func retryGates(attempt func() ([]Gate, error)) ([]Gate, error) {
	gates, err := attempt()
	if err != nil || allPass(gates) {
		return gates, err
	}
	for _, g := range gates {
		if !g.Pass() && !g.Retry {
			return gates, nil
		}
	}
	return attempt()
}

func allPass(gates []Gate) bool {
	for _, g := range gates {
		if !g.Pass() {
			return false
		}
	}
	return true
}

// printGates writes one verdict line per gate; a failing gate adds the
// report path and its evidence.
func printGates(w io.Writer, exp Experiment, dir string, gates []Gate) {
	for _, g := range gates {
		verdict := "ok  "
		if !g.Pass() {
			verdict = "FAIL"
		}
		retry := ""
		if g.Retry {
			retry = " [retryable]"
		}
		fmt.Fprintf(w, "gate %s %s: %s = %.6g, want %s %.6g%s\n",
			verdict, exp, g.Name, g.Value, g.Op, g.Bound, retry)
		if g.Pass() {
			continue
		}
		fmt.Fprintf(w, "    report: %s\n", filepath.Join(dir, reportName(exp)))
		for _, line := range strings.Split(strings.TrimRight(g.Evidence, "\n"), "\n") {
			if line != "" {
				fmt.Fprintf(w, "    %s\n", line)
			}
		}
	}
}

// csvRowGates gates that the CSV file name in dir has at least one row
// holding each of want in its column named column.
func csvRowGates(dir, name, column string, want ...string) []Gate {
	counts := make(map[string]int)
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err == nil {
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if col := slices.Index(strings.Split(lines[0], ","), column); col < 0 {
			err = fmt.Errorf("%s has no %s column", name, column)
		} else {
			for _, line := range lines[1:] {
				if fields := strings.Split(line, ","); col < len(fields) {
					counts[fields[col]]++
				}
			}
		}
	}
	var gates []Gate
	for _, v := range want {
		g := Gate{Name: fmt.Sprintf("%s rows %s=%s", name, column, v),
			Value: float64(counts[v]), Op: ">=", Bound: 1}
		if err != nil {
			g.Evidence = err.Error()
		}
		gates = append(gates, g)
	}
	return gates
}
