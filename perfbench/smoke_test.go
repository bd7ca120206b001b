package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"
)

// tinySizes runs every workload's code path in about a second.
var tinySizes = sizes{
	rowsRows:    20_000,
	rowsCache:   4 << 20,
	aggSegs:     3,
	aggSegRows:  20_000,
	aggCache:    64 << 10,
	blockValues: 4096,
	tpchSF:      0.01,
	ingestRows:  4096,
	ingestSegs:  3,
	setups:      2,
	quickSetups: 3,
	copyBytes:   1 << 20,
}

// TestSmoke runs every workload untraced and then the traced run at
// tiny sizes, and checks that each emits every metric it names with its
// unit and that every oracle passed.
func TestSmoke(t *testing.T) {
	names := make([]string, 0, len(workloads))
	for w := range workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, w := range names {
		t.Run(w, func(t *testing.T) {
			res := smokeRun(t, w, false)
			checkResult(t, res, endToEnd)
		})
	}
	t.Run("trace", func(t *testing.T) {
		res := smokeRun(t, names[0], true)
		checkResult(t, res, perLayer)
	})
}

func smokeRun(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	base := t.TempDir()
	e, err := newEnv(base, 7, 300*time.Millisecond, tinySizes, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	res, err := run(e, workload, trace)
	if err != nil {
		t.Fatal(err)
	}
	if trace {
		if _, err := os.Stat(filepath.Join(base, "trace.json")); err != nil {
			t.Errorf("traced run left no span file: %v", err)
		}
	}
	return res
}

func checkResult(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, %d named", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s missing", d.name)
			continue
		}
		if m.Unit != d.unit {
			t.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(back))
	for k := range back {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(keys, want) {
		t.Errorf("result keys %v, want %v", keys, want)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the
// workloads and metrics this program reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []jm `json:"end_to_end"`
		PerLayer  []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %s", w.Name)
		}
	}
	if len(got) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program has %d", got, len(workloads))
	}
	for _, c := range []struct {
		json []jm
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program %d", len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if m := c.json[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("BENCHMARK.json metric %d is %+v, the program's is %s %s %s", i, m, d.name, d.unit, d.better)
			}
		}
	}
}
